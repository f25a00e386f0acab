#!/usr/bin/env python3
"""Conservation drift study on a smooth two-component run.

Evolves the configured datum once per time step in a halving ladder,
writes one conserved-quantity log per step, and prints the worst
relative drift of each invariant together with the ratio between
ladder levels.  The ratio table is the interesting output: it shows
the drift floor set by the spatial resolution.
"""
import argparse
import math
import sys
from pathlib import Path

from novlab import cliio, evolve, load_config, make_grid, quick_override
from novlab.initial import transform_with_map

REPO = Path(__file__).resolve().parents[1]
INVARIANTS = ("E_u", "E_v", "G", "H")


def max_drifts(traj):
    c0 = traj.conserved_log[0]
    return {
        name: max(abs(getattr(c, name) - getattr(c0, name))
                  / abs(getattr(c0, name))
                  for c in traj.conserved_log[1:])
        for name in INVARIANTS
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "two_bump.cfg"))
    ap.add_argument("--out", default=None)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--levels", type=int, default=2,
                    help="time-step halvings to run (default 2)")
    args = ap.parse_args(argv)

    cfg = load_config(args.config)
    if args.quick:
        cfg = quick_override(cfg)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    grid = make_grid(cfg.xi_min, cfg.xi_max, cfg.n)
    state0 = transform_with_map(cliio.datum_from_config(cfg), grid)

    tables = []
    for level in range(args.levels):
        # A negative t_final runs backward.
        dt = math.copysign(cfg.dt, cfg.t_final) / 2**level
        rec = cfg.record_every * 2**level
        traj = evolve(state0, cfg.t_final, dt, record_every=rec,
                      bounds=cliio.bounds_from_config(cfg))
        path = out / f"conserved_level{level}.csv"
        with open(path, "w", newline="") as fh:
            cliio.write_conserved_csv(fh, traj)
        drifts = max_drifts(traj)
        tables.append((dt, drifts))
        row = ", ".join(f"{k} {v:.3e}" for k, v in drifts.items())
        print(f"dt={dt:g}: {row}  -> {path}")

    for (dt_a, da), (dt_b, db) in zip(tables, tables[1:]):
        row = ", ".join(f"{k} {da[k] / db[k]:.2f}x" for k in INVARIANTS)
        print(f"drift ratio dt={dt_a:g} / dt={dt_b:g}: {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
