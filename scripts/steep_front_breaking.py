#!/usr/bin/env python3
"""Level-event detection and exponent fits along a steepening run.

Evolves the configured datum, scans every recorded slice for angle
level events, and fits the one-sided power law of u around the leading
crossing of each slice.  Writes the per-slice fit table (plot-ready)
and the classified points, then prints the r^2-weighted mean exponent
over a depth band past first detection.
"""
import argparse
import csv
import math
import sys
from pathlib import Path

from novlab import (AnalysisError, ContractError, classify, euler_fields,
                    evolve, find_crossings, fit_exponent, load_config,
                    make_grid, quick_override)
from novlab.cliio import bounds_from_config, datum_from_config, write_jsonl
from novlab.initial import transform_with_map

REPO = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config",
                    default=str(REPO / "configs" / "steep_front.cfg"))
    ap.add_argument("--out", default=None)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--band", type=float, nargs=2, default=(0.04, 0.08),
                    metavar=("LO", "HI"),
                    help="depth band past first detection for the "
                         "weighted mean (default 0.04 0.08)")
    ap.add_argument("--component", default="u", choices=("u", "v"))
    args = ap.parse_args(argv)

    cfg = load_config(args.config)
    if args.quick:
        cfg = quick_override(cfg)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    grid = make_grid(cfg.xi_min, cfg.xi_max, cfg.n)
    state0 = transform_with_map(datum_from_config(cfg), grid)
    dt = math.copysign(cfg.dt, cfg.t_final)  # a negative t_final runs backward
    traj = evolve(state0, cfg.t_final, dt, record_every=cfg.record_every,
                  bounds=bounds_from_config(cfg))

    first_t = label = None
    points = []
    rows = []
    for t, state in zip(traj.times, traj.states):
        pts = find_crossings(state, tol_pi=cfg.tol_pi)
        if not pts:
            continue
        if first_t is None:
            first_t = t
            label = classify(pts[0], state, tol_pi=cfg.tol_pi,
                             tol_zero_rel=cfg.tol_zero_rel).case_label
        points.extend(pts)
        try:
            field = euler_fields(state)
            alpha, r2 = fit_exponent(field, pts[0].x_star, cfg.side_window,
                                     cfg.min_gap, component=args.component)
        except (AnalysisError, ContractError):
            continue
        rows.append((t, pts[0].x_star, len(pts), alpha, r2))

    write_jsonl(points, out / "points.jsonl")
    fits_path = out / "slice_fits.csv"
    with open(fits_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x_star", "n_points", "alpha", "r2"])
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v
                        for v in row])
    print(f"wrote {out / 'points.jsonl'} and {fits_path}")

    if first_t is None:
        print("no level events detected in this run")
        return 0
    print(f"first detection at t={first_t:g}, case {label}")
    lo, hi = args.band
    sel = [(a, r) for t, _, _, a, r in rows
           if lo - 1e-9 <= t - first_t <= hi + 1e-9]
    if not sel:
        print("no usable fits inside the requested band")
        return 0
    den = sum(r for _, r in sel)
    mean = sum(a * r for a, r in sel) / den
    print(f"weighted mean exponent over depth [{lo:g}, {hi:g}]: "
          f"{mean:.4f} ({len(sel)} slices)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
