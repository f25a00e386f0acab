"""Config-to-run assembly and deterministic artifact writers.

All floats are serialized with repr (str of a float is its repr), which
round-trips exactly and makes artifacts byte-stable across reruns on the
same platform. Flags are written as 1/0; no CSV cell needs quoting.
JSON records are the dataclass fields, with non-finite floats as null.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .config import ScenarioConfig
from .errors import ConfigError, ContractError
from .evolution import OmegaBounds
from .initial import FIELDS, EulerDatum, builtin_datum, mirrored, pair_datum

__all__ = [
    "bounds_from_config",
    "datum_from_config",
    "perturbed_datum",
    "write_conserved_csv",
    "write_state_csv",
    "write_euler_csv",
    "write_ratios_csv",
    "write_points_jsonl",
    "write_cancellations_jsonl",
]


def bounds_from_config(cfg: ScenarioConfig) -> OmegaBounds:
    return OmegaBounds(q_lo=cfg.q_lo, q_hi=cfg.q_hi, slack=cfg.slack)


def datum_from_config(cfg: ScenarioConfig) -> EulerDatum:
    u = builtin_datum(cfg.datum_u_family, cfg.datum_u_params)
    if cfg.datum_v_mode == "same":
        return u
    if cfg.datum_v_mode == "mirrored":
        return mirrored(u)
    v = builtin_datum(cfg.datum_v_family, cfg.datum_v_params)
    return pair_datum(u, v)


def perturbed_datum(base: EulerDatum, cfg: ScenarioConfig) -> EulerDatum:
    """Base datum plus eps times a named bump on the chosen component."""
    if not cfg.perturb_family:
        raise ConfigError("metric mode needs metric.perturb.family")
    bump = builtin_datum(cfg.perturb_family, cfg.perturb_params)
    eps = cfg.perturb_eps
    on_u = cfg.perturb_component in ("u", "both")
    on_v = cfg.perturb_component in ("v", "both")

    def shifted(f, g):
        return lambda x: f(x) + eps * g(x)

    return EulerDatum(
        u0=shifted(base.u0, bump.u0) if on_u else base.u0,
        du0=shifted(base.du0, bump.du0) if on_u else base.du0,
        v0=shifted(base.v0, bump.v0) if on_v else base.v0,
        dv0=shifted(base.dv0, bump.dv0) if on_v else base.dv0,
        kinks=tuple(sorted(set(base.kinks) | set(bump.kinks))),
    )


_BLOCK_ROWS = 1024  # table rows formatted per write


def _write_table(fileobj, header, columns) -> None:
    """CSV from equal-length 1-D columns, one write per block of rows."""
    columns = [c.astype(np.int8) if c.dtype == bool else c
               for c in map(np.asarray, columns)]
    n = columns[0].size
    if any(c.shape != (n,) for c in columns):
        raise ContractError("table columns differ in length")
    fileobj.write(",".join(header) + "\n")
    for lo in range(0, n, _BLOCK_ROWS):
        cells = [map(str, c[lo:lo + _BLOCK_ROWS].tolist()) for c in columns]
        fileobj.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def write_conserved_csv(fileobj, traj) -> None:
    names = ("E_u", "E_v", "G", "H")
    log = [[getattr(c, k) for c in traj.conserved_log] for k in names]
    _write_table(fileobj, ["t", *names, "y_consistency"],
                 np.array([traj.times, *log, traj.y_checks], dtype=float))


def write_state_csv(fileobj, state) -> None:
    _write_table(fileobj, ["xi", *FIELDS], [state.grid.nodes, *state.data])


def write_euler_csv(fileobj, field) -> None:
    _write_table(fileobj, ["x", "u", "v", "ux", "ux_valid", "vx", "vx_valid"],
                 [field.x, field.u, field.v, field.ux, field.ux_valid,
                  field.vx, field.vx_valid])


def write_ratios_csv(fileobj, rows) -> None:
    header = ["t", "d_t_upper", "ratio", "search_mode", "eta_iterations"]
    dtypes = (float, float, float, str, np.int64)
    _write_table(fileobj, header, [np.array([getattr(r, k) for r in rows], dt)
                                   for k, dt in zip(header, dtypes)])


def _plain(obj):
    """obj as JSON-ready Python values; non-finite floats become None."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is an int
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if obj is None or isinstance(obj, str):
        return obj
    raise ContractError(f"no JSON form for {type(obj).__name__}")


def _write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(_plain(rec), sort_keys=True) + "\n")


def write_points_jsonl(points, path) -> None:
    _write_jsonl(points, path)


def write_cancellations_jsonl(reports, path) -> None:
    _write_jsonl(reports, path)
