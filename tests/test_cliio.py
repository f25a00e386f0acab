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

from novlab.breaking import (CancellationCheck, CancellationReport,
                             SingularPoint)
from novlab.cliio import (write_cancellations_jsonl, write_conserved_csv,
                          write_euler_csv, write_points_jsonl,
                          write_ratios_csv, write_state_csv)
from novlab.evolution import ConservedSet
from novlab.metric import RatioRow

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308,
           1e16, 1e-16, 1.7976931348623157e308, 0.1, -1.5]

# Lengths around the writer's row-block edge, plus the empty table.
LENGTHS = [0, 1, 1023, 1024, 1025, 3000]


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


@given(float_columns(7))
def test_state_csv_matches_reference(drawn):
    (xi, U, V, W, Z, q, y), _ = drawn
    state = SimpleNamespace(grid=SimpleNamespace(nodes=xi),
                            data=np.stack((U, V, W, Z, q, y)))
    cols = (xi, U, V, W, Z, q, y)
    expected = reference_csv(["xi", "U", "V", "W", "Z", "q", "y"],
                             ([fmt(c[k]) for c in cols]
                              for k in range(xi.size)))
    assert written(write_state_csv, state) == expected


@given(float_columns(5))
def test_euler_csv_matches_reference(drawn):
    (x, u, v, ux, vx), rng = drawn
    ux_valid = rng.random(x.size) < 0.5
    vx_valid = rng.random(x.size) < 0.5
    field = SimpleNamespace(x=x, u=u, v=v, ux=ux, vx=vx,
                            ux_valid=ux_valid, vx_valid=vx_valid)
    expected = reference_csv(
        ["x", "u", "v", "ux", "ux_valid", "vx", "vx_valid"],
        ([fmt(x[k]), fmt(u[k]), fmt(v[k]), fmt(ux[k]), int(ux_valid[k]),
          fmt(vx[k]), int(vx_valid[k])] for k in range(x.size)))
    assert written(write_euler_csv, field) == expected


def test_ratios_csv_matches_reference():
    rows = [RatioRow(t=-0.0, d_t_upper=1e-16, ratio=1.0,
                     search_mode="eta_zero", eta_iterations=0),
            RatioRow(t=0.1, d_t_upper=np.float64(2.5e-3),
                     ratio=np.float64(1.3062665291664561),
                     search_mode="coarse_descent", eta_iterations=200),
            RatioRow(t=np.float64(-1.0), d_t_upper=math.inf, ratio=math.nan,
                     search_mode="coarse_descent", eta_iterations=np.int64(7))]
    header = ["t", "d_t_upper", "ratio", "search_mode", "eta_iterations"]
    expected = reference_csv(header, (
        [fmt(r.t), fmt(r.d_t_upper), fmt(r.ratio), r.search_mode,
         int(r.eta_iterations)] for r in rows))
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
    assert (written_jsonl(write_points_jsonl, points)
            == written_jsonl(oracle_points_jsonl, points))


@given(st.lists(REPORTS, max_size=4))
def test_cancellations_jsonl_matches_oracle(reports):
    assert (written_jsonl(write_cancellations_jsonl, reports)
            == written_jsonl(oracle_cancellations_jsonl, reports))
