#!/usr/bin/env python3
"""Distance-ratio stability under shrinking perturbation size.

Runs the two-direction distance-ratio experiment once per requested
perturbation size, writes one ratio table per size, and prints the
worst pointwise ratio variation between consecutive sizes.  Ratios
that stop moving as eps shrinks indicate the distance scales linearly
in the perturbation.
"""
import argparse
import dataclasses
import sys
from pathlib import Path

from novlab import cliio, lipschitz_experiment, load_config, make_grid, quick_override

REPO = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config",
                    default=str(REPO / "configs" / "lipschitz.cfg"))
    ap.add_argument("--out", default=None)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--eps", type=float, nargs="+", default=None,
                    help="perturbation sizes (default: config value "
                         "and its half)")
    args = ap.parse_args(argv)

    cfg = load_config(args.config)
    if args.quick:
        cfg = quick_override(cfg)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    eps_list = args.eps or [cfg.perturb_eps, 0.5 * cfg.perturb_eps]
    grid = make_grid(cfg.xi_min, cfg.xi_max, cfg.n)
    base = cliio.datum_from_config(cfg)

    tables = []
    for k, eps in enumerate(eps_list):
        cfg_eps = dataclasses.replace(cfg, perturb_eps=eps)
        # The experiment runs both time directions, so the horizon is
        # |t_final|.
        rows = lipschitz_experiment(
            base, cliio.perturbed_datum(base, cfg_eps), grid,
            abs(cfg.t_final), cfg.dt, alpha=cfg.alpha, m_theta=cfg.m_theta,
            record_every=cfg.record_every,
            bounds=cliio.bounds_from_config(cfg), eta_nodes=cfg.eta_nodes,
            iters=cfg.descent_iters)
        path = out / f"ratios_eps{k}.csv"
        with open(path, "w", newline="") as fh:
            cliio.write_ratios_csv(fh, rows)
        worst = max(r.ratio for r in rows)
        print(f"eps={eps:g}: max ratio {worst:.4f}  -> {path}")
        tables.append(rows)

    for (ea, ra), (eb, rb) in zip(zip(eps_list, tables),
                                  zip(eps_list[1:], tables[1:])):
        variation = max(abs(a.ratio - b.ratio) / b.ratio
                        for a, b in zip(ra, rb))
        print(f"ratio variation eps={ea:g} -> eps={eb:g}: {variation:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
