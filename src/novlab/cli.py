"""Command-line front end.

Four subcommands share one config file format:

  evolve    time-step a scenario, write conserved/state/euler tables
  singular  locate and classify angle-level events along a run
  metric    distance-ratio experiment between a datum and a perturbation
  validate  run the built-in property suite, one PASS/FAIL line each

Exit codes: 0 success, 2 config or contract violation, 3 numerical
abort, 4 analysis failure.  An abort names itself on stderr, and a guard
trip in time stepping names its step.  evolve and singular step each
record and hand it on, so a run holds one recorded state at a time.  On
a guard trip evolve has already written the frames of the records
before it and adds conserved.csv, and singular writes conserved.csv and
the events of those records; metric writes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
from contextlib import nullcontext
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from . import cliio
from .config import (ScenarioConfig, load_config, quick_override,
                     validate_config)
from .errors import (AnalysisError, ConfigError, ContractError, EvolveAbort,
                     NovlabError, NumericalAbort)
from .evolution import evolve
from .grid import make_grid
from .initial import transform_with_map

if TYPE_CHECKING:
    from .breaking import (classify, find_crossings, fit_exponent,
                           verify_cancellations)
    from .metric import lipschitz_experiment
    from .reconstruct import euler_fields
    from .validation import run_suite

__all__ = ["main"]

# The functions only some commands call, by defining module.  A command
# imports its own with `_bind`, so `evolve` loads neither `breaking` nor
# `metric`, and `metric` neither `breaking` nor `reconstruct`.  Reading
# one as an attribute of this module imports it as well (PEP 562); once
# imported, each is a module global that a caller may rebind.
_DEFERRED = {
    "euler_fields": "reconstruct",
    "find_crossings": "breaking",
    "classify": "breaking",
    "fit_exponent": "breaking",
    "verify_cancellations": "breaking",
    "lipschitz_experiment": "metric",
    "run_suite": "validation",
}


def _bind(*names: str) -> None:
    scope = globals()
    for name in names:
        if name not in scope:
            module = import_module(f".{_DEFERRED[name]}", __package__)
            scope[name] = getattr(module, name)


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


def _prepare(args) -> tuple[ScenarioConfig, Path]:
    cfg = load_config(args.config)
    if args.quick:
        cfg = quick_override(cfg)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    validate_config(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _create(path: Path):
    return open(path, "w", encoding="utf-8", newline="")


def _record_writer(out: Path, files: list[str]):
    """An on_record consumer that writes each record's state and Euler
    frames as it is stepped, and appends their paths to files."""
    index = itertools.count()

    def write(state) -> None:
        i = next(index)
        spath = out / f"state_{i:04d}.csv"
        epath = out / f"euler_{i:04d}.csv"
        try:
            field = euler_fields(state)
        except ContractError as err:
            print(f"skipped {epath.name}: {err}", file=sys.stderr)
            field = None
        with _create(spath) as sfh, \
                (nullcontext() if field is None else _create(epath)) as efh:
            cliio.write_record_csv(sfh, efh, state, field)
        files.append(str(spath))
        if field is not None:
            files.append(str(epath))

    return write


def _write_conserved(traj, out: Path) -> str:
    path = out / "conserved.csv"
    with _create(path) as fh:
        cliio.write_conserved_csv(fh, traj)
    return str(path)


def _run_trajectory(cfg: ScenarioConfig, on_record):
    """Evolve the configured datum, handing each record to on_record."""
    grid = make_grid(cfg.xi_min, cfg.xi_max, cfg.n)
    datum = cliio.datum_from_config(cfg)
    state = transform_with_map(datum, grid)
    dt = math.copysign(cfg.dt, cfg.t_final)  # a negative t_final runs backward
    return evolve(state, cfg.t_final, dt, record_every=cfg.record_every,
                  bounds=cliio.bounds_from_config(cfg), on_record=on_record)


def _report_abort(err: EvolveAbort, files: list[str], out: Path) -> int:
    print(f"numerical abort: {err}", file=sys.stderr)
    print(f"partial artifacts: {len(files)} files in {out}", file=sys.stderr)
    return 3


def cmd_evolve(args) -> int:
    _bind("euler_fields")
    cfg, out = _prepare(args)
    frames = []
    try:
        traj = _run_trajectory(cfg, _record_writer(out, frames))
    except EvolveAbort as err:
        return _report_abort(err, [_write_conserved(err.partial, out),
                                   *frames], out)
    files = [_write_conserved(traj, out), *frames]
    print(f"evolved to t={traj.times[-1]!r} in {len(traj.times)} records")
    print(f"wrote {len(files)} files in {out}")
    return 0


def _report_skip(analysis: str, point, err: NovlabError) -> None:
    # The point is still written, without what the analysis would add.
    print(f"skipped {analysis} at t={float(point.t)!r}, "
          f"xi={float(point.xi_star)!r}: {err}", file=sys.stderr)


def cmd_singular(args) -> int:
    _bind("find_crossings", "euler_fields", "classify", "fit_exponent",
          "verify_cancellations")
    cfg, out = _prepare(args)
    points = []
    reports = []

    def analyse(state) -> None:
        found = find_crossings(state, tol_pi=cfg.tol_pi)
        field = field_err = None
        if found and cfg.fit_exponents:
            # The graph the exponent fits run on.
            try:
                field = euler_fields(state)
            except ContractError as err:
                field_err = err
        for point in found:
            try:
                point = classify(point, state, tol_pi=cfg.tol_pi,
                                 tol_zero_rel=cfg.tol_zero_rel)
            except AnalysisError as err:
                _report_skip("classify", point, err)
            if cfg.fit_exponents:
                fits = {}
                for comp in ("u", "v"):
                    analysis = f"fit_exponent ({comp})"
                    if field is None:
                        # No graph to fit on: the map y is not monotone.
                        _report_skip(analysis, point, field_err)
                        continue
                    try:
                        slope, _ = fit_exponent(field, point.x_star,
                                                cfg.side_window, cfg.min_gap,
                                                component=comp)
                        fits[f"fitted_exponent_{comp}"] = slope
                    except AnalysisError as err:
                        _report_skip(analysis, point, err)
                if fits:
                    point = dataclasses.replace(point, **fits)
            points.append(point)
            if cfg.run_cancellations and point.case_label is not None:
                try:
                    reports.append(verify_cancellations(point, state))
                except AnalysisError as err:
                    _report_skip("verify_cancellations", point, err)

    def write_events() -> list[str]:
        paths = [out / "points.jsonl", out / "cancellations.jsonl"]
        cliio.write_jsonl(points, paths[0])
        cliio.write_jsonl(reports, paths[1])
        return [str(path) for path in paths]

    try:
        traj = _run_trajectory(cfg, analyse)
    except EvolveAbort as err:
        return _report_abort(err, [_write_conserved(err.partial, out),
                                   *write_events()], out)
    paths = write_events()
    print(f"found {len(points)} level events over {len(traj.times)} records")
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def cmd_metric(args) -> int:
    _bind("lipschitz_experiment")
    cfg, out = _prepare(args)
    grid = make_grid(cfg.xi_min, cfg.xi_max, cfg.n)
    datum0 = cliio.datum_from_config(cfg)
    datum1 = cliio.perturbed_datum(datum0, cfg)
    # The experiment runs both time directions, so the horizon is |t_final|.
    rows = lipschitz_experiment(
        datum0, datum1, grid, abs(cfg.t_final), cfg.dt, alpha=cfg.alpha,
        m_theta=cfg.m_theta, record_every=cfg.record_every,
        bounds=cliio.bounds_from_config(cfg), eta_nodes=cfg.eta_nodes,
        iters=cfg.descent_iters)
    path = out / "ratios.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        cliio.write_ratios_csv(fh, rows)
    worst = float(max(r.ratio for r in rows))
    print(f"wrote {path} ({len(rows)} rows), max ratio {worst!r}")
    return 0


def cmd_validate(args) -> int:
    _bind("run_suite")
    cfg, _ = _prepare(args)
    results = run_suite(cfg)
    failed = [r for r in results if not r.passed]
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed: "
              + ", ".join(r.name for r in failed), file=sys.stderr)
        return 4
    print(f"all {len(results)} checks passed")
    return 0


_COMMANDS = {
    "evolve": cmd_evolve,
    "singular": cmd_singular,
    "metric": cmd_metric,
    "validate": cmd_validate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="novlab",
        description="Characteristic-coordinate laboratory for a coupled "
                    "peakon-bearing wave system.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--quick", action="store_true",
                       help="shrink the run for smoke testing; "
                            "validate ignores it")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ContractError as err:
        print(f"contract violation: {err}", file=sys.stderr)
        return 2
    except NumericalAbort as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 3
    except AnalysisError as err:
        print(f"analysis failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
