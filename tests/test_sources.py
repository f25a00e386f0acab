"""Nonlocal source assembly and the exponential-kernel convolution."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from novlab import (ContractError, NumericalAbort, assemble_sources, exp_convolve,
                    exp_convolve_bruteforce, half_angle_factors,
                    kernel_accumulator, level_distance, make_grid)
from novlab.validation import bumps, random_state

from conftest import flat_state


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15)
def test_scan_matches_bruteforce_property(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(-8.0, 8.0, 128)
    state = random_state(rng, g)
    G = kernel_accumulator(state, half_angle_factors(state))
    p = bumps(rng, g, 2, 1.0)
    fe, fo = exp_convolve(p, G, g)
    se, so = exp_convolve_bruteforce(p, G, g)
    assert np.max(np.abs(fe - se)) < 1e-12
    assert np.max(np.abs(fo - so)) < 1e-12


def random_stack(rng, g):
    return np.stack([bumps(rng, g, 3, 1.0) for _ in range(4)])


def test_stacked_convolve_equals_row_by_row_bitwise():
    # One (4, n) pass must give exactly what four 1-D passes give.
    rng = np.random.default_rng(7)
    g = make_grid(-20.0, 20.0, 1024)
    state = random_state(rng, g)
    G = kernel_accumulator(state, half_angle_factors(state))
    p = random_stack(rng, g)
    even, odd = exp_convolve(p, G, g)
    assert even.shape == odd.shape == p.shape
    for row in range(p.shape[0]):
        e1, o1 = exp_convolve(p[row], G, g)
        assert np.array_equal(even[row], e1)
        assert np.array_equal(odd[row], o1)


def test_stacked_scan_matches_bruteforce():
    rng = np.random.default_rng(8)
    g = make_grid(-12.0, 12.0, 512)
    state = random_state(rng, g)
    G = kernel_accumulator(state, half_angle_factors(state))
    p = random_stack(rng, g)
    fe, fo = exp_convolve(p, G, g)
    se, so = exp_convolve_bruteforce(p, G, g)
    assert se.shape == so.shape == p.shape
    assert np.max(np.abs(fe - se)) < 1e-12
    assert np.max(np.abs(fo - so)) < 1e-12


@pytest.mark.parametrize("value, node", [
    # A NaN spreads along both scan directions over the whole row; the
    # diagnostic names the input node that holds it.
    (np.nan, 250),
    # 1e300 overflows the forward scan only: node 250 sits 25 kernel
    # units into a forward block (exp(25) * 1e300 > max float) but 15
    # into a backward one, so the output is finite left of it.
    (1e300, 250),
])
def test_stacked_convolve_names_first_bad_node(value, node):
    g = make_grid(-35.0, 35.0, 701)
    state = flat_state(g)
    G = kernel_accumulator(state, half_angle_factors(state))
    p = np.ones((4, g.n))
    p[2, 250] = value
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbort) as stacked:
            exp_convolve(p, G, g)
        with pytest.raises(NumericalAbort) as single:
            exp_convolve(p[2], G, g)
        for row in (0, 1, 3):
            exp_convolve(p[row], G, g)
    assert stacked.value.diagnostics["node"] == node
    assert single.value.diagnostics["node"] == node
    assert f"at node {node}" in str(stacked.value)


@pytest.mark.parametrize("convolve", [exp_convolve, exp_convolve_bruteforce])
@pytest.mark.parametrize("shape", [(10,), (65,), (2, 3, 64)])
def test_convolutions_reject_a_shape_mismatch(convolve, shape):
    # A caller's shape error is a contract violation, not a numerical abort.
    g = make_grid(-5.0, 5.0, 64)
    state = flat_state(g)
    G = kernel_accumulator(state, half_angle_factors(state))
    with pytest.raises(ContractError, match=r"shape"):
        convolve(np.ones(shape), G, g)


def test_convolve_names_nonfinite_kernel_potential_node():
    g = make_grid(-35.0, 35.0, 701)
    state = flat_state(g)
    G = kernel_accumulator(state, half_angle_factors(state))
    G[300] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalAbort) as err:
            exp_convolve(np.ones((4, g.n)), G, g)
    assert err.value.diagnostics["node"] == 300


def test_kernel_flat_state_has_closed_form():
    # With W = Z = 0 and q = 1 the kernel weight is |xi - eta| itself, so
    # convolving the constant 1 against e^{-|xi-eta|} has the closed form
    # 2 - e^{-(xi-a)} - e^{-(b-xi)} on [a, b], up to O(dx^2) quadrature.
    g = make_grid(-10.0, 10.0, 4001)
    state = flat_state(g)
    G = kernel_accumulator(state, half_angle_factors(state))
    even, odd = exp_convolve(np.ones(g.n), G, g)
    xi = g.nodes
    expected = 2.0 - np.exp(-(xi - g.xi_min)) - np.exp(-(g.xi_max - xi))
    assert np.max(np.abs(even - expected)) < 5.0 * g.dx**2
    # The signed variant integrates sign(eta - xi) e^{-|xi-eta|}.
    expected_odd = np.exp(-(xi - g.xi_min)) - np.exp(-(g.xi_max - xi))
    assert np.max(np.abs(odd - expected_odd)) < 5.0 * g.dx**2


def test_accumulator_rejects_negative_density():
    # Negative q means the state left its validity region at runtime.
    g = make_grid(-1.0, 1.0, 16)
    state = flat_state(g, -1.0)
    with pytest.raises(NumericalAbort):
        kernel_accumulator(state, half_angle_factors(state))


def test_wide_domain_does_not_overflow():
    # The kernel weights are assembled from differences of the potential
    # so a wide domain must not produce inf/nan even though e^{span}
    # would overflow.
    g = make_grid(-400.0, 400.0, 2048)
    state = flat_state(g)
    G = kernel_accumulator(state, half_angle_factors(state))
    even, odd = exp_convolve(np.ones(g.n), G, g)
    assert np.all(np.isfinite(even)) and np.all(np.isfinite(odd))
    be, bo = exp_convolve_bruteforce(np.ones(g.n), G, g)
    assert np.max(np.abs(even - be)) < 1e-12
    assert np.max(np.abs(odd - bo)) < 1e-12


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
    # Rows P1, P2 equal rows S1, S2 bitwise, in both stacks.
    for stack in assemble_sources(state, half_angle_factors(state)):
        assert np.array_equal(stack[0::2], stack[1::2])


def test_sources_finite_and_shaped(smooth_pair_state):
    state = smooth_pair_state
    src, dx_src = assemble_sources(state, half_angle_factors(state))
    for stack in (src, dx_src):
        assert stack.shape == (4, state.grid.n)
        assert np.all(np.isfinite(stack))


def test_zero_state_sources_vanish():
    g = make_grid(-5.0, 5.0, 64)
    state = flat_state(g)
    for stack in assemble_sources(state, half_angle_factors(state)):
        assert np.max(np.abs(stack)) == 0.0
