"""Config-to-run assembly and deterministic artifact writers.

Every float cell holds the bytes of repr(float(x)) (the shortest decimal
that reads back as x), which round-trips exactly and makes artifacts
byte-stable across reruns on the same platform. The CSV writers make
those bytes in numpy, not by calling repr per cell:
`_floatcells.float_cells` formats a block of float64 values into a
NUL-padded byte matrix, and each block of rows is one matrix with its
NULs dropped. Only zeros, NaN, +-inf, subnormals and the rare cells
whose rounding is too close to call in double-double go through repr
itself. Flags are written as 1/0; no CSV cell needs quoting. JSON
records are the dataclass fields, with non-finite floats as null.

A record's state and Euler tables are written in one pass over blocks
of rows, and each distinct column is formatted once: the xi cells are
formatted once per grid, and the Euler x, u, v take the cells of the
state's y, U, V for every block where their float64 bits are equal
(0.0 and -0.0 differ in bits, so they never share a cell).
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .config import ScenarioConfig
from .errors import ConfigError, ContractError
from .initial import FIELDS, EulerDatum, builtin_datum, mirrored, pair_datum

if TYPE_CHECKING:
    from .evolution import OmegaBounds

__all__ = [
    "bounds_from_config",
    "datum_from_config",
    "perturbed_datum",
    "write_conserved_csv",
    "write_record_csv",
    "write_ratios_csv",
    "write_jsonl",
]


def bounds_from_config(cfg: ScenarioConfig) -> OmegaBounds:
    from .evolution import OmegaBounds  # set-up need not load stepping
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


def _cells(columns, work=None) -> list:
    """Cell matrices of equal-length 1-D columns (see `cell_matrix`),
    the float columns formatted together in one `float_cells` call."""
    # The formatter is imported where a table is written, so a process
    # that only builds a run (config, grid, datum) does not compile it.
    from ._floatcells import WIDTH, cell_matrix, float_cells

    floats = [k for k, c in enumerate(columns) if c.dtype.kind == "f"]
    cells = [None if k in floats else cell_matrix(c)
             for k, c in enumerate(columns)]
    if floats:
        block = float_cells(np.stack([columns[k] for k in floats]), work)
        for k, m in zip(floats, block.reshape(len(floats), -1, WIDTH)):
            cells[k] = m
    return cells


def _rows(cells) -> str:
    """CSV lines of cell matrices with an equal, nonzero number of rows:
    each cell's NULs dropped, cells joined by commas."""
    widths = [c.shape[1] + 1 for c in cells]
    table = np.empty((cells[0].shape[0], sum(widths)), np.uint8)
    end = 0
    for c, width in zip(cells, widths):
        table[:, end:end + width - 1] = c
        end += width
        table[:, end - 1] = ord(",")
    table[:, -1] = ord("\n")
    return table.tobytes().translate(None, b"\0").decode("ascii")


def _write_table(fileobj, header, columns) -> None:
    """CSV from equal-length 1-D columns, one write per block of rows."""
    columns = list(map(np.asarray, columns))
    n = columns[0].size
    if any(c.shape != (n,) for c in columns):
        raise ContractError("table columns differ in length")
    fileobj.write(",".join(header) + "\n")
    for lo in range(0, n, _BLOCK_ROWS):
        fileobj.write(_rows(_cells([c[lo:lo + _BLOCK_ROWS] for c in columns])))


def write_conserved_csv(fileobj, traj) -> None:
    names = ("E_u", "E_v", "G", "H")
    log = [[getattr(c, k) for c in traj.conserved_log] for k in names]
    _write_table(fileobj, ["t", *names, "y_consistency"],
                 np.array([traj.times, *log, traj.y_checks], dtype=float))


@lru_cache(maxsize=1)
def _xi_cells(grid) -> np.ndarray:
    """The xi column's cells: the same in every record on one grid."""
    from ._floatcells import float_cells

    return float_cells(grid.nodes)


# Euler column -> the state row whose cells it may share (None: its own).
_EULER_SOURCES = {"x": FIELDS.index("y"), "u": FIELDS.index("U"),
                  "v": FIELDS.index("V"), "ux": None, "ux_valid": None,
                  "vx": None, "vx_valid": None}


def _same_bits(a, b) -> bool:
    return (a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def write_record_csv(state_fh, euler_fh, state, field) -> None:
    """The record's state table to state_fh and its Euler table to euler_fh.

    field is euler_fields(state), or None when that raised: then only
    the state table is written and euler_fh is not touched.
    """
    from ._floatcells import Workspace

    data, xi = state.data, _xi_cells(state.grid)
    n = len(xi)
    euler = [] if field is None else [
        (getattr(field, name), k) for name, k in _EULER_SOURCES.items()]
    if data.shape != (len(FIELDS), n) or any(c.shape != (n,) for c, _ in euler):
        raise ContractError("table columns differ in length")
    state_fh.write(",".join(["xi", *FIELDS]) + "\n")
    if euler:
        euler_fh.write(",".join(_EULER_SOURCES) + "\n")
    work = Workspace(min(n, _BLOCK_ROWS) * (len(FIELDS) + len(euler)))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        rows = data[:, lo:hi]
        # A Euler column shares a state row's cells where the bits agree.
        shared = [k if k is not None and _same_bits(c[lo:hi], rows[k])
                  else None for c, k in euler]
        cells = _cells([*rows, *(c[lo:hi] for (c, _), k in zip(euler, shared)
                                 if k is None)], work)
        state_fh.write(_rows([xi[lo:hi], *cells[:len(FIELDS)]]))
        if euler:
            own = iter(cells[len(FIELDS):])
            euler_fh.write(_rows([next(own) if k is None else cells[k]
                                  for k in shared]))


def write_ratios_csv(fileobj, rows) -> None:
    header = ["t", "d_t_upper", "ratio", "search_mode", "eta_iterations"]
    iters = np.array([r.eta_iterations for r in rows], np.int64)
    # search_mode names the search that the pass cap makes.
    _write_table(fileobj, header,
                 [*(np.array([getattr(r, k) for r in rows], float)
                    for k in header[:3]),
                  np.where(iters > 0, "coarse_descent", "eta_zero"), iters])


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


def write_jsonl(records, path) -> None:
    """One JSON object per dataclass record, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(_plain(rec), sort_keys=True) + "\n")
