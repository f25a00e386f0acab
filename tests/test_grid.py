"""Grid, quadrature, and finite-difference contracts."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from novlab import (ConfigError, ContractError, builtin_datum, fd_derivative,
                    integrate, make_grid, prefix_integral, transform_with_map)
from novlab.grid import MAX_NODES, kink_positions


def test_make_grid_basic():
    g = make_grid(-2.0, 2.0, 5)
    assert g.n == 5
    assert g.dx == pytest.approx(1.0)
    assert np.allclose(g.nodes, [-2, -1, 0, 1, 2])


def test_kink_positions_snap_onto_nodes_and_keep_the_interior():
    # A label within 1e-9 dx of a node lies on it; labels at or past the
    # grid ends cut nothing, and a repeated label counts once.
    g = make_grid(-1.0, 1.0, 11)
    between = float(g.nodes[3] + 0.5 * g.dx)
    near = float(g.nodes[6] + 2e-10 * g.dx)
    positions = kink_positions((near, between, -1.0, 1.0, 7.0, near), g)
    assert positions[0] == pytest.approx(3.5, abs=1e-12)
    assert positions[1:] == (6.0,)
    assert kink_positions((float(g.nodes[6] + 2e-9 * g.dx),), g) != (6.0,)
    with pytest.raises(ContractError, match="not finite"):
        kink_positions((np.nan,), g)


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        make_grid(1.0, -1.0, 8)
    with pytest.raises(ConfigError):
        make_grid(0.0, 1.0, 2)
    with pytest.raises(ConfigError):
        make_grid(0.0, np.inf, 8)
    # The node cap itself is a grid; one node past it is not.  Neither
    # builds the nodes.
    assert make_grid(0.0, 1.0, MAX_NODES).n == MAX_NODES
    with pytest.raises(ConfigError, match="need at most"):
        make_grid(0.0, 1.0, MAX_NODES + 1)


def test_prefix_integral_matches_manual_trapezoid():
    # Independent O(n^2) oracle: each prefix is its own trapezoid sum.
    g = make_grid(0.0, 3.0, 7)
    rng = np.random.default_rng(0)
    f = rng.normal(size=g.n)
    pref = prefix_integral(f, g)
    assert pref[0] == 0.0
    for k in range(1, g.n):
        manual = float(np.trapezoid(f[: k + 1], dx=g.dx))
        assert pref[k] == pytest.approx(manual, abs=1e-14)


def test_integrate_shape_contract():
    g = make_grid(0.0, 1.0, 9)
    with pytest.raises(ContractError):
        integrate(np.zeros(8), g)


@given(st.integers(min_value=0, max_value=3))
def test_fd_first_derivative_exact_on_low_polynomials(degree):
    # The first-derivative stencil uses 5 points, so cubics are exact.
    g = make_grid(-2.0, 2.0, 41)
    x = g.nodes
    f = x**degree
    expected = degree * x ** (degree - 1) if degree > 0 else np.zeros_like(x)
    err = np.max(np.abs(fd_derivative(f, g, 1) - expected))
    assert err < 1e-10


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_fd_polynomial_exactness_per_order(order):
    # Each stencil order must reproduce derivatives of x^k exactly for
    # k up to its point count minus one, interior and boundary alike.
    g = make_grid(-1.5, 2.5, 37)
    x = g.nodes
    width = {1: 2, 2: 2, 3: 3, 4: 3}[order]
    max_deg = 2 * width
    for deg in range(max_deg + 1):
        f = x**deg
        coef = 1.0
        for j in range(order):
            coef *= deg - j
        if deg >= order:
            expected = coef * x ** (deg - order)
        else:
            expected = np.zeros_like(x)
        scale = max(1.0, float(np.max(np.abs(expected))))
        err = np.max(np.abs(fd_derivative(f, g, order) - expected))
        assert err < 1e-8 * scale, (order, deg, err)


def test_fd_converges_at_advertised_rate():
    # Richardson oracle on sin(x): doubling n shrinks the interior error
    # by about 2**4. Every interior row is fourth order: the centred
    # stencil's point excess npts - order is 4 for orders 1 and 3, and 3
    # (plus one order from symmetry) for orders 2 and 4. Orders 3 and 4
    # run one grid coarser, since at n = 401 order 4 already meets
    # roundoff.
    acc = 4
    for order, sizes in ((1, (201, 401)), (2, (201, 401)),
                         (3, (101, 201)), (4, (101, 201))):
        errs = []
        for n in sizes:
            g = make_grid(-3.0, 3.0, n)
            x = g.nodes
            f = np.sin(x)
            d = fd_derivative(f, g, order)
            exact = np.sin(x + 0.5 * np.pi * order)
            interior = slice(8, -8)
            errs.append(np.max(np.abs((d - exact)[interior])))
        rate = errs[0] / errs[1]
        assert rate > 0.6 * 2**acc, (order, rate)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_fd_derivative_of_a_stack_is_its_rows_bitwise(order):
    # A (k, n) stack, also one with strided rows, is differentiated row
    # by row, each row bit for bit its 1-D result.
    g = make_grid(-3.0, 2.0, 57)
    data = np.random.default_rng(order).normal(size=(6, g.n))
    for rows in (data[2:5], data[::2]):
        stack = fd_derivative(rows, g, order)
        assert stack.shape == rows.shape
        for row, res in zip(rows, stack):
            assert np.array_equal(res.view(np.uint64),
                                  fd_derivative(row, g, order).view(np.uint64))


@pytest.mark.parametrize("shape", [(2, 2, 16), (15,), (2, 17), ()])
def test_fd_derivative_rejects_bad_shapes(shape):
    g = make_grid(0.0, 1.0, 16)
    with pytest.raises(ContractError):
        fd_derivative(np.zeros(shape), g, 1)


def test_fd_rejects_unsupported_order():
    g = make_grid(0.0, 1.0, 16)
    with pytest.raises(ContractError):
        fd_derivative(np.zeros(g.n), g, 5)


@pytest.mark.parametrize("order, layout", [
    pytest.param(order, layout, id=f"{name}{order}")
    for name, layout in (("", ((20, 0.37), (40, 0.0))),
                         ("end-cells-", ((0, 0.5), (59, 0.5))))
    for order in (1, 2, 3, 4)])
def test_fd_derivative_is_exact_on_each_side_of_a_kink(order, layout):
    # Two kinks, each at node k plus offset dx, cut the line into three
    # pieces, each a polynomial of the stencil's full degree: a node gets
    # its piece's derivative, a one-node piece 0, and a node on a kink,
    # which neither side reads (it holds 1e30), the mean of the two sides.
    # First a kink between nodes and one on node 40, then a kink in the
    # first and in the last cell, so that each end is a one-node piece.
    g = make_grid(-1.5, 2.5, 61)
    x = g.nodes
    kinks = tuple(float(x[k] + offset * g.dx) for k, offset in layout)
    degree = 2 * {1: 2, 2: 2, 3: 3, 4: 3}[order]
    polys = [np.polynomial.Polynomial(c) for c in
             np.random.default_rng(order).normal(size=(3, degree + 1))]
    piece = np.searchsorted(kinks, x)
    f = np.choose(piece, [p(x) for p in polys])
    expected = np.choose(piece, [p.deriv(order)(x) for p in polys])
    expected[np.bincount(piece)[piece] == 1] = 0.0
    on = np.flatnonzero(np.isin(x, kinks))
    f[on] = 1e30
    for i in on:
        expected[i] = 0.5 * (polys[piece[i]].deriv(order)(x[i])
                             + polys[piece[i] + 1].deriv(order)(x[i]))
    got = fd_derivative(f, g, order, kinks)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(got - expected)) < 1e-8 * scale
    # Without the kinks the stencils reach across them.
    assert np.max(np.abs(fd_derivative(np.choose(piece, [p(x) for p in polys]),
                                       g, order) - expected)) > 1e-2 * scale


def test_peakon_angle_slopes_stay_bounded_at_the_crest():
    # W jumps at the crest's label; cut there, W_xi stays below 1 at
    # every node, where the stencils across the jump read about 93.
    for n in (2048, 2049):
        state = transform_with_map(builtin_datum("peakon", {"c": 1.0}),
                                   make_grid(-20.0, 20.0, n))
        pair = state.data[2:4]
        assert np.max(np.abs(fd_derivative(pair, state.grid, 1,
                                           state.kinks))) < 1.0
        assert np.max(np.abs(fd_derivative(pair, state.grid, 1))) > 90.0
