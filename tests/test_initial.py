"""Initial-datum construction and the stretched-coordinate transform."""
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from novlab import (ConfigError, ContractError, builtin_datum, conserved,
                    invert_y0, make_grid, mirrored, pair_datum,
                    transform_with_map)
from novlab.initial import (_GL_NODES, _GL_WEIGHTS, _TABLE_BLOCK,
                            TransformedState, _CumulativeDensity,
                            _density_table)

from conftest import same_bits, traced_peak


def test_builtin_families_cover_known_shapes():
    g = builtin_datum("gaussian_bump", {"a": 2.0, "center": 1.0, "width": 0.5})
    assert g.u0(1.0) == pytest.approx(2.0)
    assert g.du0(1.0) == pytest.approx(0.0, abs=1e-12)
    s = builtin_datum("sech_bump", {"a": 1.0, "center": 0.0, "width": 1.0})
    assert s.u0(0.0) == pytest.approx(1.0)
    p = builtin_datum("peakon", {"c": 1.0, "center": 0.0})
    assert p.u0(0.0) == pytest.approx(1.0)
    assert p.u0(2.0) == pytest.approx(np.exp(-2.0))
    f = builtin_datum("steep_front", {"a": 1.0, "center": 0.0, "width": 1.0})
    assert f.u0(0.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("family,params,fragment", [
    ("no_such_family", {}, "unknown datum family 'no_such_family'"),
    ("gaussian_bump", {"a": 1.0, "bogus": 2.0}, "unknown parameters"),
    ("gaussian_bump", {"width": 0.0}, "width must be > 0"),
    ("sech_bump", {"width": 0.0}, "width must be > 0"),
    ("steep_front", {"width": 0.0}, "width must be > 0"),
    ("peakon", {"c": 0.0}, "c must be > 0"),
    ("peakon", {"c": -1.0}, "c must be > 0"),
    ("gaussian_bump", {"a": float("nan")}, "finite"),
    ("sech_bump", {"center": float("inf")}, "finite"),
    ("peakon", {"c": "fast"}, "real number"),
    ("steep_front", {"a": None}, "real number"),
])
def test_builtin_rejects_unknown_family_and_keys(family, params, fragment):
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        builtin_datum(family, params)


def test_builtin_defaults():
    # Each family without parameters is its closed form at the defaults
    # a = 1 (a = 2 for steep_front), c = 1, center = 0, width = 1.
    x = np.linspace(-4.0, 4.0, 801)
    g = np.exp(-(x**2))
    expected = {
        "gaussian_bump": (g, g * (-2.0 * x)),
        "sech_bump": (1.0 / np.cosh(x), -np.tanh(x) / np.cosh(x)),
        "peakon": (np.exp(-np.abs(x)), -np.sign(x) * np.exp(-np.abs(x))),
        "steep_front": (-2.0 * x * g, -2.0 * (1.0 - 2.0 * x**2) * g),
    }
    for family, (f, df) in expected.items():
        datum = builtin_datum(family)
        for got, want in ((datum.u0, f), (datum.v0, f), (datum.du0, df),
                          (datum.dv0, df)):
            assert np.array_equal(got(x), want), family
        assert datum.kinks == ((0.0,) if family == "peakon" else ())


def test_mirrored_datum_reflects_u():
    base = {"a": 1.0, "center": 0.7, "width": 1.2}
    ref = builtin_datum("gaussian_bump", base)
    m = mirrored(ref)
    x = np.linspace(-3, 3, 41)
    assert np.allclose(m.v0(x), ref.u0(-x), atol=1e-15)
    assert np.allclose(m.dv0(x), -ref.du0(-x), atol=1e-15)
    assert np.allclose(m.u0(x), ref.u0(x), atol=1e-15)


def test_pair_datum_mixes_components():
    a = builtin_datum("gaussian_bump", {"a": 1.0})
    b = builtin_datum("gaussian_bump", {"a": 2.0})
    pair = pair_datum(a, b)
    assert pair.u0(0.0) == pytest.approx(1.0)
    assert pair.v0(0.0) == pytest.approx(2.0)


def test_zero_profile_transforms_to_identity_map():
    g = make_grid(-5.0, 5.0, 101)
    zero = builtin_datum("gaussian_bump", {"a": 0.0})
    state = transform_with_map(zero, g)
    assert np.allclose(state.y, g.nodes, atol=1e-12)
    assert np.all(state.q == 1.0)
    assert np.all(state.W == 0.0)


def test_invert_y0_handles_steep_density():
    # A sharp front concentrates density; the solve must still bracket.
    g = make_grid(-12.0, 12.0, 1024)
    datum = builtin_datum("steep_front", {"a": 1.6, "center": 0.0, "width": 0.8})
    y0 = invert_y0(datum, g)
    table = _density_table(datum, g)
    assert np.max(np.abs(table.value(y0) - g.nodes)) < 1e-12


def test_peakon_cumulative_closed_form_matches_table():
    # The quadrature table must agree with the symbolic prefix integral
    # of the scalar peakon density everywhere, including across the kink.
    g = make_grid(-14.0, 14.0, 2048)
    datum = builtin_datum("peakon", {"c": 1.0, "center": 0.0})
    table = _density_table(datum, g)
    x = np.linspace(-6.0, 6.0, 201)
    ux2 = np.exp(-2.0 * np.abs(x))
    # density = 1 + 2 ux^2 + ux^4, prefix from -inf normalized at x=0:
    # int 2 e^{-2|s|} ds = 2 sign(x)(1 - e^{-2|x|})/2 * 2 ... use numeric
    # reference on a fine mesh instead of juggling signs by hand.
    fine = np.linspace(-14.0, 14.0, 400001)
    ufx2 = np.exp(-2.0 * np.abs(fine))
    dens = 1.0 + 2.0 * ufx2 + ufx2**2
    pref = np.concatenate(([0.0], np.cumsum(
        0.5 * np.diff(fine) * (dens[:-1] + dens[1:]))))
    pref -= np.interp(0.0, fine, pref)
    expected = np.interp(x, fine, pref)
    got = table.value(x)
    assert np.max(np.abs(got - expected)) < 5e-9


def test_gauss_legendre_literals_are_leggauss_bitwise():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert same_bits(_GL_NODES, nodes)
    assert same_bits(_GL_WEIGHTS, weights)


@pytest.mark.parametrize("datum, lo, hi, h", [
    # The peakon's kink at 0 is a cut and the table's added 0 as well.
    (builtin_datum("peakon"), -20.0, 20.0, 0.25 * 40.0 / 2047),
    # Kinks off 0 on a cut: the cuts are the multiples of 0.25 in [-3, 5].
    (builtin_datum("peakon", {"center": 1.25}), -3.0, 5.0, 0.25),
    (mirrored(builtin_datum("peakon", {"center": 1.25})), -3.0, 5.0, 0.25),
])
def test_density_breakpoints_equal_np_unique(datum, lo, hi, h):
    n_cells = max(int(np.ceil((hi - lo) / h)), 8)
    cuts = np.linspace(lo, hi, n_cells + 1)
    assert np.isin(datum.kinks, cuts).all()
    interior = [k for k in datum.kinks if lo < k < hi]
    expected = np.unique(np.concatenate([cuts, [0.0], interior]))
    assert same_bits(_CumulativeDensity(datum, lo, hi, h).x, expected)


def test_transform_peakon_even_grid_conserves_h1_energy():
    # E_u for e^{-|x|} is exactly 2.  An even node count keeps the kink
    # off the grid.
    g = make_grid(-20.0, 20.0, 2048)
    datum = builtin_datum("peakon", {"c": 1.0, "center": 0.0})
    state = transform_with_map(datum, g)
    c = conserved(state)
    assert c.E_u == pytest.approx(2.0, abs=1e-6)
    assert c.E_v == pytest.approx(2.0, abs=1e-6)


def test_transform_labels_the_kinks_and_averages_a_node_on_one():
    # Each kink x_k in the window gets the label xi_k = F(x_k), between
    # the labels of the two nodes whose y0 bracket x_k; one outside the
    # window gets none.  On an odd grid a node sits on the crest at 0,
    # and its W and Z are the mean of the one-sided angles +-pi/2.
    two = mirrored(builtin_datum("peakon", {"center": 1.3}))
    for n in (512, 513):
        g = make_grid(-20.0, 20.0, n)
        state = transform_with_map(two, g)
        assert len(state.kinks) == 2 and list(state.kinks) == sorted(state.kinks)
        for x_k, xi_k in zip((-1.3, 1.3), state.kinks):
            m = int(np.searchsorted(state.y, x_k))
            assert g.nodes[m - 1] < xi_k <= g.nodes[m]
    far = builtin_datum("peakon", {"center": 30.0})
    assert transform_with_map(far, make_grid(-20.0, 20.0, 512)).kinks == ()
    state = transform_with_map(builtin_datum("peakon"),
                               make_grid(-20.0, 20.0, 513))
    assert state.kinks == (0.0,)
    assert same_bits(state.data[2:4, 256], np.zeros(2))
    assert np.all(state.data[2:4, 255] > 1.5) and np.all(
        state.data[2:4, 257] < -1.5)


def test_transform_fields_match_datum_composition():
    g = make_grid(-16.0, 16.0, 512)
    datum = builtin_datum("gaussian_bump", {"a": 0.9, "width": 1.3})
    state = transform_with_map(datum, g)
    assert np.array_equal(state.y, invert_y0(datum, g))
    assert np.allclose(state.U, datum.u0(state.y), atol=1e-14)
    assert np.allclose(np.tan(0.5 * state.W), datum.du0(state.y), atol=1e-12)
    # q equals the reciprocal density along y0 scaled so y_xi closes.
    assert np.all(state.q > 0)


@pytest.mark.parametrize("shape", [(5, 64), (6, 63), (6 * 64,)],
                         ids=["wrong_rows", "wrong_length", "not_2d"])
def test_state_rejects_mis_shaped_data(shape):
    # The constructor checks the shape of the whole array and with_fields
    # the name and shape of each replaced row; a mis-shaped state must not
    # reach rk4_step, conserved or euler_fields.
    g = make_grid(-5.0, 5.0, 64)
    with pytest.raises(ContractError):
        TransformedState(0.0, g, np.zeros(shape))
    state = TransformedState(0.0, g, np.zeros((6, g.n)))
    for rows in ({"U": np.zeros(shape)}, {"U": np.zeros(g.n - 1)},
                 {"bogus": np.zeros(g.n)}):
        with pytest.raises(ContractError):
            state.with_fields(**rows)


@given(st.floats(min_value=0.2, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_gaussian_amplitude_and_center_round_trip(a, c):
    datum = builtin_datum("gaussian_bump", {"a": a, "center": c, "width": 1.0})
    assert datum.u0(c) == pytest.approx(a, rel=1e-12)


def all_node_invert_y0(datum, grid):
    """The Newton solve as it ran before it skipped converged nodes:
    every iteration evaluates F and D0 at every node and keeps the
    results of the active ones."""
    table = _density_table(datum, grid)
    xi = grid.nodes
    lo = np.full(grid.n, table.x[0])
    hi = np.full(grid.n, table.x[-1])
    x = np.clip(xi, lo, hi)
    resid = table.value(x) - xi
    dxold = hi - lo
    for _ in range(60):
        active = np.abs(resid) >= 1e-12
        if not active.any():
            break
        hi = np.where(active & (resid > 0), np.minimum(hi, x), hi)
        lo = np.where(active & (resid < 0), np.maximum(lo, x), lo)
        dens = table.density(x)
        newton = x - resid / dens
        ok = ((newton > lo) & (newton < hi)
              & (np.abs(2.0 * resid) <= np.abs(dxold * dens)))
        trial = np.where(ok, newton, 0.5 * (lo + hi))
        dxold = np.where(active, np.abs(trial - x), dxold)
        x = np.where(active, trial, x)
        resid = np.where(active, table.value(x) - xi, resid)
    return x


def two_slope_density(datum):
    # The density with du0 and dv0 called apart, as before a shared
    # slope was evaluated once.
    def density(x):
        du, dv = datum.du0(x), datum.dv0(x)
        return (1.0 + du * du) * (1.0 + dv * dv)
    return density


SETUP_DATA = {
    "gaussian_bump": builtin_datum("gaussian_bump", {"a": 0.9, "width": 1.3}),
    "sech_bump": builtin_datum("sech_bump", {"a": 1.2, "center": 0.4}),
    "peakon": builtin_datum("peakon", {"c": 1.0, "center": 0.3}),
    "steep_front": builtin_datum("steep_front"),
    "pair": pair_datum(builtin_datum("gaussian_bump", {"a": 2.0}),
                       builtin_datum("gaussian_bump", {"a": 0.7, "width": 2.0})),
    "mirrored": mirrored(builtin_datum("peakon", {"center": -1.25})),
}


@pytest.mark.parametrize("n", [257, 8192])
@pytest.mark.parametrize("name", sorted(SETUP_DATA))
def test_transform_equals_the_all_node_solve_bitwise(name, n, monkeypatch):
    datum = SETUP_DATA[name]
    g = make_grid(-20.0, 20.0, n)
    state = transform_with_map(datum, g)
    monkeypatch.setattr(_CumulativeDensity, "density",
                        lambda self, x: two_slope_density(self.datum)(x))
    y0 = all_node_invert_y0(datum, g)
    assert same_bits(state.data, np.stack((
        datum.u0(y0), datum.v0(y0), 2.0 * np.arctan(datum.du0(y0)),
        2.0 * np.arctan(datum.dv0(y0)), np.ones(g.n), y0)))


def fixed_order_panels(density, a, b):
    """Each panel's 10-point Gauss integral: the density at its ten nodes
    in one call, then the weighted terms added in node order."""
    half = 0.5 * (b - a)
    samples = density((0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES)
    total = np.zeros(a.size)
    for k in range(_GL_NODES.size):
        total += _GL_WEIGHTS[k] * samples[:, k]
    return total * half


@pytest.mark.parametrize("n", [257, 2048, 8192])
@pytest.mark.parametrize("name", sorted(SETUP_DATA))
def test_density_table_in_blocks_equals_the_one_shot_table_bitwise(name, n):
    # A cell, and F at a point, take the same bits evaluated alone, in
    # the table's _TABLE_BLOCK blocks or with every panel in one call.
    # 4 cells per grid cell: one block at n = 257, 2 at 2048, 8 at 8192.
    table = _density_table(SETUP_DATA[name], make_grid(-20.0, 20.0, n))
    a, b = table.x[:-1], table.x[1:]
    assert -(-a.size // _TABLE_BLOCK) == {257: 1, 2048: 2, 8192: 8}[n]
    cells = fixed_order_panels(table.density, a, b)
    cum = np.cumsum(np.concatenate(([0.0], cells)))
    assert same_bits(table.cum, cum - cum[np.searchsorted(table.x, 0.0)])
    x = np.linspace(a[0], b[-1], 2 * n + 1)
    idx = np.searchsorted(a, x, side="right") - 1
    F = table.cum[idx] + fixed_order_panels(table.density, a[idx], x)
    assert same_bits(table._panel(a, b), cells)
    assert same_bits(table.value(x), F)
    # Alone: a spread of cells, both ends of every block, and points.
    alone = np.r_[0:a.size:a.size // 100, _TABLE_BLOCK - 1:a.size:_TABLE_BLOCK,
                  _TABLE_BLOCK:a.size:_TABLE_BLOCK]
    assert same_bits(np.array([table._panel(a[i], b[i]) for i in alone]),
                     cells[alone])
    some = slice(None, None, x.size // 100)
    assert same_bits(np.array([table.value(p) for p in x[some]]), F[some])


@pytest.mark.parametrize("name", sorted(SETUP_DATA))
def test_density_table_holds_one_sample_buffer(name):
    # The transform at n = 8192: 32,764 to 32,766 table cells and a
    # 393 KB state.  With (N, 10) density sample buffers, weighed by one
    # product over all rows, its peak was 4.99-6.30 MB.  The bound is
    # half the smallest of those peaks.
    datum, g = SETUP_DATA[name], make_grid(-20.0, 20.0, 8192)
    transform_with_map(datum, g)
    peak = traced_peak(transform_with_map, datum, g)
    assert peak <= 2_490_000, peak
