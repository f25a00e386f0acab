"""The CSV table writers against a csv.writer + repr(float(x)) oracle."""
import csv
import io
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from novlab.cliio import (write_conserved_csv, write_euler_csv,
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
