#!/usr/bin/env python3
"""Conservation drift study on a smooth two-component run.

Evolves the configured datum once per level of a ladder, writes one
conserved-quantity log per level, and prints the worst relative drift
of each invariant, the ratio between ladder levels and the seconds each
level's evolve took.

--ladder dt (the default) halves the time step at the configured grid:
the ratios show that the drift is a spatial floor, not time error.
--ladder grid doubles the node count at the configured time step (from
--n, the config's grid.n if not given): the ratios show the spatial
order, about 256x per doubling for the eighth-order kernel quadrature
until the drift meets the roundoff floor near 1e-14, and drift against
seconds is the accuracy per cost.
"""
import argparse
import math
import sys
import time
from dataclasses import replace
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


def ladder(cfg, kind, levels):
    """(label, n, dt, record_every) per level of the ladder."""
    # A negative t_final runs backward.
    dt = math.copysign(cfg.dt, cfg.t_final)
    for level in range(levels):
        if kind == "dt":
            yield (f"dt={dt / 2**level:g}", cfg.n, dt / 2**level,
                   cfg.record_every * 2**level)
        else:
            yield f"n={cfg.n * 2**level}", cfg.n * 2**level, dt, cfg.record_every


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "two_bump.cfg"))
    ap.add_argument("--out", default=None)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--ladder", choices=("dt", "grid"), default="dt",
                    help="halve dt, or double the node count (default dt)")
    ap.add_argument("--n", type=int, default=None,
                    help="node count of the first level (default grid.n)")
    ap.add_argument("--levels", type=int, default=2,
                    help="ladder levels to run (default 2)")
    args = ap.parse_args(argv)

    cfg = load_config(args.config)
    if args.quick:
        cfg = quick_override(cfg)
    if args.n is not None:
        cfg = replace(cfg, n=args.n)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    datum = cliio.datum_from_config(cfg)

    tables = []
    for level, (label, n, dt, rec) in enumerate(
            ladder(cfg, args.ladder, args.levels)):
        state0 = transform_with_map(datum, make_grid(cfg.xi_min, cfg.xi_max, n))
        start = time.perf_counter()
        traj = evolve(state0, cfg.t_final, dt, record_every=rec,
                      bounds=cliio.bounds_from_config(cfg))
        seconds = time.perf_counter() - start
        path = out / f"conserved_level{level}.csv"
        with open(path, "w", newline="") as fh:
            cliio.write_conserved_csv(fh, traj)
        drifts = max_drifts(traj)
        tables.append((label, drifts))
        row = ", ".join(f"{k} {v:.3e}" for k, v in drifts.items())
        print(f"{label}: {row}, {seconds:.2f} s  -> {path}")

    for (la, da), (lb, db) in zip(tables, tables[1:]):
        row = ", ".join(f"{k} {da[k] / db[k]:.2f}x" for k in INVARIANTS)
        print(f"drift ratio {la} / {lb}: {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
