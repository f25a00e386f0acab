"""The artifact writers against oracles: CSV tables against a csv.writer
+ repr(float(x)) reference, JSONL records against hand-written record
dicts."""
import csv
import io
import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import novlab.cliio
from novlab.breaking import (CancellationCheck, CancellationReport,
                             SingularPoint)
from novlab.cliio import (write_conserved_csv, write_jsonl, write_ratios_csv,
                          write_record_csv)
from novlab.evolution import ConservedSet
from novlab.metric import RatioRow

from conftest import traced_peak

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308,
           1e16, 1e-16, 1.7976931348623157e308, 0.1, -1.5,
           # where repr switches between positional and scientific form
           1e-4, 1e-5, 9.999999999999999e-05, 1e15, 9999999999999998.0]

# Lengths around the writer's row-block edge (1024 rows) and the float
# formatter's chunk (8192 cells, the xi column's edge), plus the empty
# table.
LENGTHS = [0, 1, 1023, 1024, 1025, 3000, 8191, 8192, 8193]


def reference_csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def fmt(x) -> str:
    return repr(float(x))


@st.composite
def float_columns(draw, count):
    """count float64 columns of one drawn length, filled from a drawn pool
    of finite, non-finite, signed-zero, subnormal and huge values."""
    n = draw(st.sampled_from(LENGTHS))
    pool = draw(st.lists(st.floats(width=64) | st.sampled_from(SPECIAL),
                         min_size=1, max_size=40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return [rng.choice(np.array(pool), size=n) for _ in range(count)], rng


def written(writer, *args) -> str:
    buf = io.StringIO()
    writer(buf, *args)
    return buf.getvalue()


class StubGrid:
    """A grid stand-in with drawn nodes, hashed by identity."""

    def __init__(self, nodes):
        self.nodes = nodes


def state_reference(xi, U, V, W, Z, q, y) -> str:
    cols = (xi, U, V, W, Z, q, y)
    return reference_csv(["xi", "U", "V", "W", "Z", "q", "y"],
                         ([fmt(c[k]) for c in cols] for k in range(xi.size)))


def euler_reference(field) -> str:
    x, u, v, ux, vx = field.x, field.u, field.v, field.ux, field.vx
    ux_valid, vx_valid = field.ux_valid, field.vx_valid
    return reference_csv(
        ["x", "u", "v", "ux", "ux_valid", "vx", "vx_valid"],
        ([fmt(x[k]), fmt(u[k]), fmt(v[k]), fmt(ux[k]), int(ux_valid[k]),
          fmt(vx[k]), int(vx_valid[k])] for k in range(x.size)))


# How the Euler x, u, v of a drawn record relate to the state's y, U, V.
EULER_DRAWS = ["same_bits", "signed_zeros", "different", "no_field"]


@st.composite
def records(draw):
    """A state stand-in and an Euler field (or None) of one drawn length."""
    (xi, U, V, W, Z, q, y, x, u, v, ux, vx), rng = draw(float_columns(12))
    how = draw(st.sampled_from(EULER_DRAWS))
    if how == "same_bits":
        x, u, v = y.copy(), U.copy(), V.copy()
    elif how == "signed_zeros":
        # Equal in value, not in bits: a zero of either sign in the state
        # row faces the other sign in the Euler column.
        for row, col in ((y, x), (U, u), (V, v)):
            zeros = rng.random(row.size) < 0.25
            row[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
            col[:] = row
            col[zeros] = -row[zeros]
    state = SimpleNamespace(grid=StubGrid(xi),
                            data=np.stack((U, V, W, Z, q, y)))
    if how == "no_field":
        return state, None
    field = SimpleNamespace(x=x, u=u, v=v, ux=ux, vx=vx,
                            ux_valid=rng.random(x.size) < 0.5,
                            vx_valid=rng.random(x.size) < 0.5)
    return state, field


@given(records())
def test_record_csv_matches_reference(record):
    # Both tables equal the csv.writer + repr oracles whether or not the
    # Euler columns share bits with the state rows; without a field the
    # Euler file object is not written to.
    state, field = record
    state_buf, euler_buf = io.StringIO(), io.StringIO()
    write_record_csv(state_buf, euler_buf, state, field)
    assert state_buf.getvalue() == state_reference(state.grid.nodes,
                                                   *state.data)
    expected = "" if field is None else euler_reference(field)
    assert euler_buf.getvalue() == expected


class Discard:
    """A text sink that keeps only the count of characters written."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


def test_record_writer_memory_stays_bounded():
    # Writing one n = 8192 record, with the xi cells built inside the
    # measurement, allocates at most 4 MB at its peak: rows go out in
    # blocks, whatever n is.
    rng = np.random.default_rng(5)
    n = 8192
    state = SimpleNamespace(grid=StubGrid(np.linspace(-20.0, 20.0, n)),
                            data=rng.standard_normal((6, n)))
    field = SimpleNamespace(x=state.data[5] + 1e-3, u=state.data[0],
                            v=state.data[1], ux=rng.standard_normal(n),
                            vx=rng.standard_normal(n),
                            ux_valid=rng.random(n) < 0.5,
                            vx_valid=rng.random(n) < 0.5)
    novlab.cliio._xi_cells.cache_clear()
    state_fh, euler_fh = Discard(), Discard()
    peak = traced_peak(write_record_csv, state_fh, euler_fh, state, field)
    assert state_fh.chars > 7 * n and euler_fh.chars > 7 * n
    assert peak < 4_000_000, peak


def test_ratios_csv_matches_reference():
    # search_mode is written from the pass cap: eta_zero for 0 only.
    rows = [RatioRow(t=-0.0, d_t_upper=1e-16, ratio=1.0, eta_iterations=0),
            RatioRow(t=0.1, d_t_upper=np.float64(2.5e-3),
                     ratio=np.float64(1.3062665291664561), eta_iterations=200),
            RatioRow(t=np.float64(-1.0), d_t_upper=math.inf, ratio=math.nan,
                     eta_iterations=np.int64(7))]
    modes = ["eta_zero", "coarse_descent", "coarse_descent"]
    header = ["t", "d_t_upper", "ratio", "search_mode", "eta_iterations"]
    expected = reference_csv(header, (
        [fmt(r.t), fmt(r.d_t_upper), fmt(r.ratio), mode,
         int(r.eta_iterations)] for r, mode in zip(rows, modes)))
    assert written(write_ratios_csv, rows) == expected
    assert written(write_ratios_csv, []) == ",".join(header) + "\n"


def test_conserved_csv_matches_reference():
    log = [ConservedSet(E_u=0.5, E_v=np.float64(0.25), G=-0.0, H=1e16),
           ConservedSet(E_u=5e-324, E_v=math.inf, G=np.float64(0.1), H=3.0)]
    traj = SimpleNamespace(times=[0.0, np.float64(0.05)], conserved_log=log,
                           y_checks=[0.0, 1.5e-7])
    header = ["t", "E_u", "E_v", "G", "H", "y_consistency"]
    expected = reference_csv(header, (
        [fmt(t), fmt(c.E_u), fmt(c.E_v), fmt(c.G), fmt(c.H), fmt(gap)]
        for t, c, gap in zip(traj.times, log, traj.y_checks)))
    assert written(write_conserved_csv, traj) == expected
    empty = SimpleNamespace(times=[], conserved_log=[], y_checks=[])
    assert written(write_conserved_csv, empty) == ",".join(header) + "\n"


# The JSONL oracle: one hand-written record dict per dataclass, each
# float through _json_real.


def _json_real(x):
    """A float for JSON, or None (null) when absent or non-finite."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def oracle_points_jsonl(points, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in points:
            rec = {
                "t": _json_real(p.t),
                "xi_star": _json_real(p.xi_star),
                "x_star": _json_real(p.x_star),
                "curve": str(p.curve),
                "tangential": bool(p.tangential),
                "case_label": None if p.case_label is None else int(p.case_label),
                "degenerate": bool(p.degenerate),
                "w_value": _json_real(p.w_value),
                "z_value": _json_real(p.z_value),
                "w_xi": _json_real(p.w_xi),
                "z_xi": _json_real(p.z_xi),
                "margins": {k: _json_real(p.margins[k]) for k in sorted(p.margins)},
                "fitted_exponent_u": _json_real(p.fitted_exponent_u),
                "fitted_exponent_v": _json_real(p.fitted_exponent_v),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def oracle_cancellations_jsonl(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rep in reports:
            rec = {
                "case_label": rep.case_label,
                "complete": rep.complete,
                "checks": [
                    {
                        "name": c.name,
                        "kind": c.kind,
                        "claimed": _json_real(c.claimed),
                        "measured": _json_real(c.measured),
                        "scale": _json_real(c.scale),
                        "rel_err": _json_real(c.rel_err),
                    }
                    for c in rep.checks
                ],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _as(kind, x):
    with np.errstate(over="ignore"):  # huge values round to float32 inf
        return kind(x)


# Reals from the special pool or anywhere, as Python floats and as
# numpy scalars (np.float64 is a float subclass, np.float32 is not).
REALS = st.builds(_as, st.sampled_from([float, np.float64, np.float32]),
                  st.sampled_from(SPECIAL) | st.floats(width=64))
LABELS = st.none() | st.integers(1, 8) | st.integers(1, 8).map(np.int64)
FLAGS = st.booleans() | st.booleans().map(np.bool_)

POINTS = st.builds(
    SingularPoint, t=REALS, xi_star=REALS, x_star=REALS,
    curve=st.sampled_from(["W", "Z", "both"]), tangential=FLAGS,
    w_value=REALS, z_value=REALS, w_xi=REALS, z_xi=REALS,
    case_label=LABELS, degenerate=FLAGS,
    margins=st.dictionaries(st.text(max_size=8), REALS, max_size=6),
    fitted_exponent_u=st.none() | REALS, fitted_exponent_v=st.none() | REALS)

CHECKS = st.builds(CancellationCheck, name=st.text(max_size=12),
                   kind=st.sampled_from(["vanish", "leading"]),
                   claimed=REALS, measured=REALS, scale=REALS, rel_err=REALS)
REPORTS = st.builds(CancellationReport, case_label=st.integers(1, 8),
                    complete=st.booleans(),
                    checks=st.lists(CHECKS, max_size=5).map(tuple))


def written_jsonl(writer, records) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        writer(records, path)
        return path.read_bytes()


@given(st.lists(POINTS, max_size=4))
def test_points_jsonl_matches_oracle(points):
    assert (written_jsonl(write_jsonl, points)
            == written_jsonl(oracle_points_jsonl, points))


@given(st.lists(REPORTS, max_size=4))
def test_cancellations_jsonl_matches_oracle(reports):
    assert (written_jsonl(write_jsonl, reports)
            == written_jsonl(oracle_cancellations_jsonl, reports))
