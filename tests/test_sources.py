"""Nonlocal source assembly and the exponential-kernel convolution."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from novlab import (ContractError, NumericalAbort, assemble_sources,
                    builtin_datum, evolve, exp_convolve,
                    exp_convolve_bruteforce, kernel_accumulator,
                    level_distance, make_grid, slope_factors,
                    transform_with_map, xi_derivatives)
from novlab import sources
from novlab.validation import bumps, random_state

from conftest import flat_state, same_bits


def a2b(state):
    # The pair A^2 B with (A, B) = (U, V) in row 0 and (V, U) in row 1.
    return state.data[:2] * state.data[:2] * state.data[1::-1]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15)
def test_scan_matches_bruteforce_property(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(-8.0, 8.0, 128)
    state = random_state(rng, g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    p = np.stack([bumps(rng, g, 2, 1.0)] * 2)
    for fast, slow in zip(exp_convolve(p, G, g),
                          exp_convolve_bruteforce(p, G, g)):
        assert np.max(np.abs(fast - slow)) < 1e-12


def random_stack(rng, g):
    return np.stack([bumps(rng, g, 3, 1.0) for _ in range(4)])


def test_stacked_convolve_equals_row_by_row_bitwise():
    # One (4, n) pass must give exactly what four 1-D passes give.
    rng = np.random.default_rng(7)
    g = make_grid(-20.0, 20.0, 1024)
    state = random_state(rng, g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    p = random_stack(rng, g)
    fwd, bwd = exp_convolve(np.stack((p, p[::-1])), G, g)
    assert fwd.shape == bwd.shape == p.shape
    for row in range(p.shape[0]):
        f1, b1 = exp_convolve(np.stack((p[row], p[3 - row])), G, g)
        assert same_bits(fwd[row], f1)
        assert same_bits(bwd[row], b1)


def test_stacked_scan_matches_bruteforce():
    rng = np.random.default_rng(8)
    g = make_grid(-12.0, 12.0, 512)
    state = random_state(rng, g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    p = random_stack(rng, g)
    fast = exp_convolve(np.stack((p, p)), G, g)
    slow = exp_convolve_bruteforce(np.stack((p, p)), G, g)
    for f, s in zip(fast, slow):
        assert s.shape == p.shape
        assert np.max(np.abs(f - s)) < 1e-12


def test_distinct_halves_match_bruteforce_across_blocks(monkeypatch):
    # Each half reads only its own integrand; at a span of 5 kernel
    # units both sums carry across many block boundaries.
    monkeypatch.setattr(sources, "_BLOCK_SPAN", 5.0)
    rng = np.random.default_rng(9)
    g = make_grid(-40.0, 40.0, 1024)
    state = random_state(rng, g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    assert G[-1] > 10.0 * sources._BLOCK_SPAN
    p_fwd = random_stack(rng, g)[:2]
    p_bwd = random_stack(rng, g)[:2]
    fast = exp_convolve(np.stack((p_fwd, p_bwd)), G, g)
    slow = exp_convolve_bruteforce(np.stack((p_fwd, p_bwd)), G, g)
    for f, s in zip(fast, slow):
        assert np.max(np.abs(f - s)) < 1e-12
    assert not np.array_equal(fast[1],
                              exp_convolve(np.stack((p_fwd, p_fwd)), G, g)[1])


@pytest.mark.parametrize("span", [None, 5.0], ids=["one-block", "span5"])
@pytest.mark.parametrize("offset", [0.37, 3e-10],
                         ids=["between-nodes", "on-a-node"])
def test_scan_matches_bruteforce_with_kinks(offset, span, monkeypatch):
    # Two kinks, each offset dx from a node (3e-10 dx lies on it), cut
    # the line into three pieces; at a span of 5 kernel units the kinks'
    # cells fall inside blocks.
    if span is not None:
        monkeypatch.setattr(sources, "_BLOCK_SPAN", span)
    rng = np.random.default_rng(11)
    g = make_grid(-40.0, 40.0, 1024)
    state = random_state(rng, g)
    kinks = tuple(float(g.nodes[k] + offset * g.dx) for k in (300, 701))
    G = kernel_accumulator(xi_derivatives(state)[0], g, kinks)
    assert (len(sources._blocks(G)) > 10) == (span is not None)
    p = np.stack((random_stack(rng, g)[:2], random_stack(rng, g)[:2]))
    fast = exp_convolve(p, G, g, kinks=kinks)
    slow = exp_convolve_bruteforce(p, G, g, kinks)
    for f, s in zip(fast, slow):
        assert np.max(np.abs(f - s)) < 1e-12
    assert not np.array_equal(fast, exp_convolve(p, G, g))


def _piece_of(nodes, positions):
    # The piece each node lies in, counted from 0 at the left end, and -1
    # for a node on a kink.
    nodes = np.asarray(nodes, dtype=float)
    piece = np.searchsorted(positions, nodes, side="left")
    on = np.isin(nodes, positions)
    return np.where(on, -1, piece)


@pytest.mark.parametrize("positions", [(), (31.37,), (31.0,),
                                       (3.5, 9.0, 12.25, 50.75),
                                       (0.5, 62.5)])
def test_boundary_rows_integrate_quintics_exactly(positions):
    # Each row of the boundary table integrates every polynomial of degree
    # <= 7 of each piece exactly over its part of the cell: a polynomial
    # on one piece that is zero on the others (and huge on a node on a
    # kink, which no row may read) integrates to its integral over the
    # part of the cell in that piece.  A piece of k < 8 nodes takes
    # degree k - 1: the fourth case has pieces of 4, 5 and 3 nodes, and
    # the last a one-node piece at either end.  On the grid [0, n - 1],
    # dx = 1, so the kink labels are the positions.
    n = 64
    at, windows, weights, _ = sources._table(make_grid(0.0, n - 1.0, n),
                                             positions)
    bounds = np.array([0.0, *positions, n - 1.0])
    sizes = np.bincount(_piece_of(np.arange(n), positions) + 1)[1:]
    assert {0, 1, 2, n - 4, n - 3, n - 2} <= set(at.tolist())
    for j, window, w in zip(at, windows, weights):
        for piece in range(len(bounds) - 1):
            a = max(j, bounds[piece])
            b = min(j + 1, bounds[piece + 1])
            if a >= b:
                continue
            owner = _piece_of(window, positions)
            for degree in range(min(sizes[piece], 8)):
                mid = j + 0.5
                values = np.where(owner == piece, (window - mid) ** degree,
                                  0.0)
                exact = ((b - mid) ** (degree + 1)
                         - (a - mid) ** (degree + 1)) / (degree + 1)
                scale = np.sum(np.abs(w * values)) + abs(exact)
                values[owner == -1] = 1e30
                assert abs(w @ values - exact) <= 1e-14 * scale, (j, piece,
                                                                 degree)


def test_cell_rule_integrates_the_degree_7_polynomial():
    # The centred rule is the integral over [xi_j, xi_j+1] of the
    # polynomial through the eight nodes xi_j-3 .. xi_j+4, to an ulp of
    # each weight, and it sums to 1 exactly.
    rule = sources._CELL_RULE
    exact = sources._part_weights(range(-3, 5), 0.0, 1.0)
    assert rule.size == 8
    assert np.all(np.abs(rule - exact) <= np.spacing(np.abs(rule)))
    assert np.sum(rule) == 1.0


@pytest.mark.parametrize("value, node, span", [
    # A NaN spreads along both scan directions over the whole row; the
    # diagnostic names the input node that holds it.
    (np.nan, 250, None),
    # 1e300 overflows the forward sum only.  The one block starts at
    # node 0 and node 250 sits 25 kernel units into it, so the forward
    # sum scales dx * 1e300 by exp(25) past max float, while the backward
    # sum scales it by exp(-25) and the output left of it stays finite.
    (1e300, 250, None),
    # At a span of 5 kernel units the NaN spreads across blocks, and the
    # block [199, 248], whose stencils read node 250 at L = G - G[197] =
    # 5.3, scales dx * 1e308 past max float; [248, 297] reads it at 0.4.
    (np.nan, 250, 5.0),
    (1e308, 250, 5.0),
], ids=["nan-250", "1e+300-250", "nan-250-span5", "1e+308-250-span5"])
def test_stacked_convolve_names_first_bad_node(value, node, span,
                                               monkeypatch):
    if span is not None:
        monkeypatch.setattr(sources, "_BLOCK_SPAN", span)
    g = make_grid(-35.0, 35.0, 701)
    state = flat_state(g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    blocks = set(sources._blocks(G))
    assert ({(199, 248), (248, 297)} <= blocks) == (span is not None)
    p = np.ones((4, g.n))
    p[2, 250] = value
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbort) as stacked:
            exp_convolve(np.stack((p, p)), G, g)
        with pytest.raises(NumericalAbort) as single:
            exp_convolve(np.stack((p[2], p[2])), G, g)
        for row in (0, 1, 3):
            exp_convolve(np.stack((p[row], p[row])), G, g)
    assert stacked.value.diagnostics["node"] == node
    assert single.value.diagnostics["node"] == node
    assert f"at node {node}" in str(stacked.value)


def test_convolve_names_a_nan_in_the_backward_input_only():
    # The NaN reaches only the backward half, at nodes 0..250, yet the
    # diagnostic names its input node, not the first bad output.
    g = make_grid(-35.0, 35.0, 701)
    state = flat_state(g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    p_bwd = np.ones((4, g.n))
    p_bwd[2, 250] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalAbort) as err:
            exp_convolve(np.stack((np.ones((4, g.n)), p_bwd)), G, g)
    assert err.value.diagnostics["node"] == 250


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_convolve_names_an_infinite_input_node(value):
    g = make_grid(-35.0, 35.0, 701)
    state = flat_state(g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    p_fwd = np.ones((2, g.n))
    p_fwd[1, 400] = value
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalAbort, match="at node 400") as err:
            exp_convolve(np.stack((p_fwd, np.ones((2, g.n)))), G, g)
    assert err.value.diagnostics["node"] == 400


def test_convolve_passes_finite_halves_whose_sum_overflows():
    # Every output is below 1e306 and finite, but their sum is not: the
    # guard looks at the entries, not at a sum of them.
    g = make_grid(-2.0, 2.0, 401)
    state = flat_state(g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    p = np.full((2, 4, g.n), 1e306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fwd, bwd = exp_convolve(p, G, g)
    with np.errstate(over="ignore"):
        assert np.sum(fwd) + np.sum(bwd) == np.inf
    assert np.all(np.isfinite(fwd)) and np.all(np.isfinite(bwd))
    for fast, slow in zip((fwd, bwd), exp_convolve_bruteforce(p, G, g)):
        assert np.max(np.abs(fast - slow)) <= 1e-12 * 1e306


def test_plan_held_stack_passes_finite_halves_whose_sum_overflows():
    # The plan's own stack skips the shape checks, and one scaled sum
    # screens its halves: every entry is finite though a plain sum of
    # them overflows, so nothing aborts or warns, and the halves are
    # those of a call on a copy of the stack, checked entry by entry.
    g = make_grid(-2.0, 2.0, 401)
    state = flat_state(g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    plan = sources.SourcePlan(g)
    plan.p[...] = 1e306
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        halves = exp_convolve(plan.p, G, g, None, plan)
    assert halves is plan.halves
    with np.errstate(over="ignore"):
        assert np.add.reduce(halves, axis=None) == np.inf
    assert np.isfinite(halves).all()
    assert same_bits(halves, exp_convolve(plan.p.copy(), G, g))


@pytest.mark.parametrize("convolve", [exp_convolve, exp_convolve_bruteforce])
@pytest.mark.parametrize("shape", [(10,), (65,), (2, 3, 64)])
def test_convolutions_reject_a_shape_mismatch(convolve, shape):
    # A caller's shape error is a contract violation, not a numerical abort.
    g = make_grid(-5.0, 5.0, 64)
    state = flat_state(g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    with pytest.raises(ContractError, match=r"shape"):
        convolve(np.ones((2,) + shape), G, g)


@pytest.mark.parametrize("convolve", [exp_convolve, exp_convolve_bruteforce])
@pytest.mark.parametrize("shape", [(64,), (1, 64), (3, 64), (4, 2, 64)])
def test_convolutions_reject_a_stack_not_of_two_halves(convolve, shape):
    # The leading axis holds the forward and the backward integrand.
    g = make_grid(-5.0, 5.0, 64)
    state = flat_state(g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    with pytest.raises(ContractError, match=re.escape(f"got {shape}")):
        convolve(np.ones(shape), G, g)


def test_convolve_names_nonfinite_kernel_potential_node():
    g = make_grid(-35.0, 35.0, 701)
    state = flat_state(g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    G[300] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalAbort) as err:
            exp_convolve(np.ones((2, 4, g.n)), G, g)
    assert err.value.diagnostics["node"] == 300


def test_convolve_rejects_a_plan_for_another_stack_shape():
    # A plan's buffers fit one stack shape; the rates' default is
    # (2, 2, n).
    g = make_grid(-8.0, 8.0, 64)
    state = flat_state(g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    with pytest.raises(ContractError, match="plan"):
        exp_convolve(np.ones((2, g.n)), G, g, None, sources.SourcePlan(g))
    fwd, bwd = exp_convolve(np.ones((2, g.n)), G, g, None,
                            sources.SourcePlan(g, (2, g.n)))
    assert same_bits(np.stack((fwd, bwd)), exp_convolve(np.ones((2, g.n)), G, g))


def angle_state(angles):
    # W runs through the angles and Z through them reversed.
    state = flat_state(make_grid(-1.0, 1.0, angles.size))
    return state.with_fields(W=angles, Z=angles[::-1])


SPECIAL_ANGLES = np.array([0.0, -0.0, np.pi, -np.pi, 1.5 * np.pi, -1.5 * np.pi,
                           2.0 * np.pi, -2.0 * np.pi, 3.0 * np.pi, -3.0 * np.pi])


def test_slope_factors_stay_within_4_eps_of_np_trig():
    # From tan(angle/2), one call: c matches cos^2(angle/2) and 2 T c
    # matches sin(angle) from libm.
    angles = np.concatenate((SPECIAL_ANGLES, np.linspace(-7.0, 7.0, 4001)))
    state = angle_state(angles)
    T, c = slope_factors(state)
    refs = np.cos(0.5 * state.data[2:4]) ** 2, np.sin(state.data[2:4])
    for got, ref in zip((c, (2.0 * T) * c), refs):
        assert got.shape == (2, angles.size)
        assert np.max(np.abs(got - ref)) <= 4.0 * np.finfo(float).eps


def test_slope_factors_keep_the_sign_of_zero_and_the_pole():
    T, c = slope_factors(angle_state(SPECIAL_ANGLES))
    sin = (2.0 * T) * c
    # tan(-0.0 / 2) is -0.0, and so is sin(-0.0); c of either zero is 1.
    assert same_bits(T[0, :2], np.array([0.0, -0.0]))
    assert same_bits(T[1, -2:], np.array([-0.0, 0.0]))
    assert same_bits(sin[0, :2], np.array([0.0, -0.0]))
    assert same_bits(c[0, :2], np.ones(2))
    # At the double nearest +-pi, tan(angle/2) is about 1.6e16: finite,
    # and so is its square.
    at_pi = (0, slice(2, 4))
    for factor in (T, np.square(T), c, sin):
        assert np.all(np.isfinite(factor))
    assert np.all(np.abs(T[at_pi]) > 1e16)
    assert np.all(c[at_pi] < 1e-32)
    assert np.all(np.square(T[at_pi]) * c[at_pi] == 1.0)
    assert np.allclose(sin[at_pi], np.sin(SPECIAL_ANGLES[2:4]), rtol=1e-15,
                       atol=0.0)


def test_slope_factors_are_2pi_periodic():
    angles = np.linspace(-3.5, 3.5, 1001)
    T0, c0 = slope_factors(angle_state(angles))
    for shift in (-2.0 * np.pi, 2.0 * np.pi):
        T, c = slope_factors(angle_state(angles + shift))
        # The shifted angle carries one rounding, at most half an ulp of
        # 10 (4 eps), which c and 2 T c see at slope <= 1, and T at
        # slope (1 + T^2)/2.
        for got, ref in ((c, c0), ((2.0 * T) * c, (2.0 * T0) * c0)):
            assert np.max(np.abs(got - ref)) <= 32.0 * np.finfo(float).eps
        assert np.all(np.abs(T - T0) <= 32.0 * np.finfo(float).eps
                      * (1.0 + T0 * T0))


def test_kernel_flat_state_has_closed_form():
    # With W = Z = 0 and q = 1 the kernel weight is |xi - eta| itself, so
    # convolving the constant 1 against e^{-|xi-eta|} over [a, b] has the
    # halves 1 - e^{-(xi-a)} left of xi and 1 - e^{-(b-xi)} right of it,
    # up to O(dx^2) quadrature.
    g = make_grid(-10.0, 10.0, 4001)
    state = flat_state(g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    fwd, bwd = exp_convolve(np.ones((2, g.n)), G, g)
    xi = g.nodes
    assert np.max(np.abs(fwd - (1.0 - np.exp(-(xi - g.xi_min))))) < 5.0 * g.dx**2
    assert np.max(np.abs(bwd - (1.0 - np.exp(-(g.xi_max - xi))))) < 5.0 * g.dx**2


def test_accumulator_rejects_negative_density():
    # Negative q means the state left its validity region at runtime.
    # With W = Z = 0 the integrand is q itself, negative at node 5 only.
    g = make_grid(-1.0, 1.0, 16)
    q = np.ones(g.n)
    q[5] = -0.5
    state = flat_state(g).with_fields(q=q)
    with pytest.raises(NumericalAbort,
                       match="kernel integrand negative at node 5") as err:
        kernel_accumulator(xi_derivatives(state)[0], state.grid)
    assert err.value.diagnostics == {"node": 5, "value": -0.5}


def test_wide_domain_does_not_overflow():
    # The kernel weights are assembled from differences of the potential
    # so a wide domain must not produce inf/nan even though e^{span}
    # would overflow.
    g = make_grid(-400.0, 400.0, 2048)
    state = flat_state(g)
    G = kernel_accumulator(xi_derivatives(state)[0], state.grid)
    ones = np.ones((2, g.n))
    for fast, slow in zip(exp_convolve(ones, G, g),
                          exp_convolve_bruteforce(ones, G, g)):
        assert np.all(np.isfinite(fast))
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_level_distance_is_the_distance_to_plus_or_minus_pi():
    angles = np.array([np.pi, -np.pi, 0.0, 3.0, -3.5, 2.0 * np.pi])
    expected = np.minimum(np.abs(angles - np.pi), np.abs(angles + np.pi))
    assert np.array_equal(level_distance(angles), expected)
    assert level_distance(np.stack((angles, -angles))).shape == (2, 6)
    assert level_distance(-np.pi) == 0.0


def test_symmetric_state_sources_collapse():
    rng = np.random.default_rng(12)
    g = make_grid(-10.0, 10.0, 256)
    base = random_state(rng, g)
    state = base.with_fields(V=base.U, Z=base.W)
    # The U and V rows of both halves are equal bitwise.
    for half in assemble_sources(state, slope_factors(state), a2b(state)):
        assert same_bits(half[0], half[1])


def test_sources_finite_and_shaped(smooth_pair_state):
    state = smooth_pair_state
    for half in assemble_sources(state, slope_factors(state), a2b(state)):
        assert half.shape == (2, state.grid.n)
        assert np.all(np.isfinite(half))


def test_zero_state_sources_vanish():
    g = make_grid(-5.0, 5.0, 64)
    state = flat_state(g)
    for half in assemble_sources(state, slope_factors(state), a2b(state)):
        assert same_bits(half, np.zeros((2, g.n)))


def analytic_case(n):
    # A strictly increasing G spanning 60 kernel units and a smooth pair
    # of integrands that decay at both ends of [-10, 10].
    g = make_grid(-10.0, 10.0, n)
    x = g.nodes
    G = 3.0 * (x + 10.0) + np.sin(x)
    p = np.stack((np.exp(-x * x) * np.cos(x), np.exp(-(x - 1.0) ** 2)))
    return g, G, p


def analytic_halves(n):
    # Both halves at the nodes of the n-grid by 10-point Gauss-Legendre
    # on every cell: exp(-G(x)) times the integral of exp(G) p[0] from
    # -10 to x, and exp(G(x)) times that of exp(-G) p[1] from x to 10.
    g, G, _ = analytic_case(n)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    mid = 0.5 * (g.nodes[:-1] + g.nodes[1:])
    eta = mid[:, None] + 0.5 * g.dx * nodes
    pot = 3.0 * (eta + 10.0) + np.sin(eta)
    fwd_cells = (np.exp(pot - G[1:, None]) * np.exp(-eta * eta) * np.cos(eta)
                 ) @ weights * (0.5 * g.dx)
    bwd_cells = (np.exp(G[:-1, None] - pot) * np.exp(-(eta - 1.0) ** 2)
                 ) @ weights * (0.5 * g.dx)
    fwd, bwd = np.zeros(n), np.zeros(n)
    # Carry each sum across a cell with its kernel factor.
    decay = np.exp(-np.diff(G))
    for i in range(1, n):
        fwd[i] = decay[i - 1] * fwd[i - 1] + fwd_cells[i - 1]
    for i in range(n - 2, -1, -1):
        bwd[i] = decay[i] * bwd[i + 1] + bwd_cells[i]
    return np.stack((fwd, bwd))


@pytest.mark.parametrize("span", [None, 4.0], ids=["one-block", "span4"])
@pytest.mark.parametrize("convolve", [exp_convolve, exp_convolve_bruteforce])
def test_kernel_quadrature_is_fourth_order(convolve, span, monkeypatch):
    # The error against the analytic halves falls at least 12x per grid
    # doubling (16x for fourth order; 256x is measured with the 8-point
    # rule), in one block and across many.
    if span is not None:
        monkeypatch.setattr(sources, "_BLOCK_SPAN", span)
    errors = []
    for n in (129, 257, 513):
        g, G, p = analytic_case(n)
        assert (len(sources._blocks(G)) > 10) == (span is not None)
        errors.append(np.max(np.abs(convolve(p, G, g) - analytic_halves(n))))
    falls = [a / b for a, b in zip(errors, errors[1:])]
    assert min(falls) >= 12.0, (errors, falls)


@pytest.mark.parametrize("n", [257, 1024, 2048])
def test_kernel_potential_never_decreases_through_the_peakon_crest(
        n, monkeypatch):
    # At the crest y_xi jumps about 50x between its neighbours, and the
    # centred 8-point rule across the jump goes negative on a cell.  The
    # kink's split cell and one-sided stencils (and the trapezoid, on any
    # cell still negative) keep G nondecreasing in every rhs of the run.
    real = sources.kernel_accumulator
    rule = np.array([-191.0, 1879.0, -9531.0, 68323.0, 68323.0, -9531.0,
                     1879.0, -191.0]) / 120960.0
    seen = {"calls": 0, "guarded": 0, "dips": 0}

    def checked(y_xi, grid, kinks=()):
        G = real(y_xi, grid, kinks)
        seen["calls"] += 1
        seen["guarded"] += bool(np.correlate(y_xi, rule).min() < 0.0)
        seen["dips"] += bool(np.diff(G).min() < 0.0)
        return G

    monkeypatch.setattr(sources, "kernel_accumulator", checked)
    state = transform_with_map(builtin_datum("peakon", {"c": 1.0}),
                               make_grid(-20.0, 20.0, n))
    evolve(state, 1.0, 2e-3, record_every=500)
    assert seen["calls"] == 4 * 500
    assert seen["guarded"] > 0 and seen["dips"] == 0, seen
