"""Time stepping, guards, and conserved quantities."""
import re
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from novlab import (ContractError, EvolveAbort, NumericalAbort, OmegaBounds,
                    builtin_datum, check_omega, conserved, evolve,
                    make_grid, pair_datum, rhs, rk4_step, transform_with_map,
                    y_formula_gap)
from novlab.evolution import Workspace
from novlab.initial import TransformedState
from novlab import sources
from novlab.validation import random_state

from conftest import (flat_state, same_bits, traced_peak, two_bump_pair,
                      wide_random_state)

BOUNDS = OmegaBounds(0.01, 100.0, 1.5)


def state_sup_diff(a, b):
    return float(np.max(np.abs(a.data[:5] - b.data[:5])))


def test_rhs_zero_state_is_fixed_point():
    g = make_grid(-5.0, 5.0, 64)
    d = rhs(flat_state(g))
    assert d.shape == (6, g.n)
    assert np.max(np.abs(d)) == 0.0


def test_rhs_q_rate_vanishes_when_angles_vanish():
    # Both q-rate terms carry a sine of the respective angle.
    rng = np.random.default_rng(5)
    g = make_grid(-8.0, 8.0, 128)
    base = random_state(rng, g)
    state = base.with_fields(W=np.zeros(g.n), Z=np.zeros(g.n))
    d = rhs(state)
    assert np.max(np.abs(d[4])) == 0.0


def test_rhs_angle_rate_at_pi_node():
    # Where W = pi and Z stays small, the W-rate reduces to -V exactly:
    # the cos^2(W/2) factors vanish and sin^2(W/2) = 1.
    rng = np.random.default_rng(6)
    g = make_grid(-8.0, 8.0, 128)
    base = random_state(rng, g)
    W = base.W.copy()
    k = g.n // 2
    W[k] = np.pi
    state = base.with_fields(W=W)
    d = rhs(state)
    assert d[2, k] == pytest.approx(-state.V[k], abs=1e-15)


def test_rhs_symmetric_state_is_bitwise_symmetric():
    rng = np.random.default_rng(7)
    g = make_grid(-8.0, 8.0, 256)
    base = random_state(rng, g)
    state = base.with_fields(V=base.U, Z=base.W)
    d = rhs(state)
    assert np.array_equal(d[0], d[1])
    assert np.array_equal(d[2], d[3])


def test_rhs_forms_the_slopes_once(monkeypatch):
    # One tan per rhs: slope_factors hands T and c down to the source
    # pass.
    from novlab import evolution
    calls = []
    real = sources.slope_factors

    def counted(state, *args):
        calls.append(state)
        return real(state, *args)

    monkeypatch.setattr(sources, "slope_factors", counted)
    monkeypatch.setattr(evolution, "slope_factors", counted)
    rhs(random_state(np.random.default_rng(6), make_grid(-8.0, 8.0, 128)))
    assert len(calls) == 1


def test_rhs_calls_each_source_layer_once(monkeypatch):
    # The source pass through the evolution module attribute, then the
    # kernel potential and the one stacked convolution through the
    # sources module attributes, each once and in this order.
    from novlab import evolution
    calls = []
    for module, name in ((evolution, "assemble_sources"),
                         (sources, "kernel_accumulator"),
                         (sources, "exp_convolve")):
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    rhs(random_state(np.random.default_rng(6), make_grid(-8.0, 8.0, 128)))
    assert calls == ["assemble_sources", "kernel_accumulator", "exp_convolve"]


# The (u, W) <-> (v, Z) swap as a permutation of the state and rhs rows.
SWAP = [1, 0, 3, 2, 4, 5]


# Grid sizes at the shipped block span, and at a span of 5 kernel units.
SIZES_AND_SPANS = pytest.mark.parametrize(
    "n, span", [(64, None), (512, None), (2048, None), (512, 5.0)],
    ids=["64", "512", "2048", "512-span5"])


@SIZES_AND_SPANS
def test_rhs_and_rk4_commute_with_the_swap_bitwise(n, span, monkeypatch):
    if span is not None:
        monkeypatch.setattr(sources, "_BLOCK_SPAN", span)
    state = wide_random_state(n, seed=n)
    swapped = state.with_fields(U=state.V, V=state.U, W=state.Z, Z=state.W)
    assert same_bits(rhs(swapped), rhs(state)[SWAP])
    for _ in range(3):
        state = rk4_step(state, 0.01, BOUNDS)
        swapped = rk4_step(swapped, 0.01, BOUNDS)
    assert same_bits(swapped.data, state.data[SWAP])


def _blocks(G, span):
    # Node ranges [s, e] of at most span in G past one cell, sharing ends.
    s, out = 0, []
    while s < G.size - 1:
        e = int(np.searchsorted(G, G[s] + span, side="right")) - 1
        e = min(max(e, s + 1), G.size - 1)
        out.append((s, e))
        s = e
    return out


# The 8-point cell rule in units of dx, the integral over [xi_j, xi_j+1]
# of the degree-7 polynomial through the samples at xi_j-3 .. xi_j+4.
CELL_RULE = np.array([-191.0, 1879.0, -9531.0, 68323.0, 68323.0, -9531.0,
                      1879.0, -191.0]) / 120960.0
# The one-sided rules on the first three cells, [xi_0, xi_1] .. [xi_2,
# xi_3], over the first eight samples; mirrored on the last three cells.
FIRST_CELL = np.array([36799.0, 139849.0, -121797.0, 123133.0, -88547.0,
                       41499.0, -11351.0, 1375.0]) / 120960.0
SECOND_CELL = np.array([-1375.0, 47799.0, 101349.0, -44797.0, 26883.0,
                        -11547.0, 2999.0, -351.0]) / 120960.0
THIRD_CELL = np.array([351.0, -4183.0, 57627.0, 81693.0, -20227.0, 7227.0,
                       -1719.0, 191.0]) / 120960.0


def _oracle_cells(rows, scale=1.0):
    """Cell integrals between neighbouring columns of each row: the
    8-point rule, formed by np.correlate as the kernel forms it so that
    the comparison stays bitwise, and on the three cells at either end the
    rows of the kernel's boundary table, by one row-wise dot as the
    kernel forms them."""
    rows = np.atleast_2d(rows)
    n = rows.shape[-1]
    at, windows, weights = sources._table(make_grid(0.0, n - 1.0, n), ())[:3]
    out = np.empty(rows.shape[:-1] + (rows.shape[-1] - 1,))
    for row, cells in zip(rows, out):
        if row.size > 7:
            cells[3:-3] = np.correlate(row, CELL_RULE * scale)
        cells[at] = np.vecdot(row[windows], weights * scale)
    return out


def _oracle_potential(y, grid):
    """G from 0 by the 8-point cells of y, the trapezoid on a cell where
    the rule would go negative."""
    cells = _oracle_cells(y, grid.dx)[0]
    trap = (0.5 * grid.dx) * (y[:-1] + y[1:])
    cells = np.where(cells < 0.0, trap, cells)
    return np.concatenate(([0.0], np.cumsum(cells)))


def _oracle_halves(G, weight, grid, p_fwd, p_bwd):
    """Both halves block by block, with fresh temporaries: a block [s, e]
    scales dx weight p_fwd by exp(L) and dx weight p_bwd by 1/exp(L),
    L = G - G[lo], on the nodes lo .. hi-1 its cells read (three past
    its left end and four past its right one, or the eight at a line
    end); its halves at k are exp(-L[k])
    times its cells' sum from s to k and exp(L[k]) times their sum from
    k to e.  Then from the left each k > s gains F[s] exp(G[s] - G[k]),
    and from the right each k < e gains B[e] exp(G[k] - G[e]).
    """
    n, dx = grid.n, grid.dx
    F, B = np.zeros(p_fwd.shape), np.zeros(p_bwd.shape)
    blocks = _blocks(G, sources._BLOCK_SPAN)
    for s, e in blocks:
        lo = max(min(s - 3, n - 8 if e > n - 4 else s), 0)
        hi = min(max(e + 4, 8 if s < 3 else e), n)
        up = np.exp(G[lo:hi] - G[lo])
        down = 1.0 / up
        w = (weight * dx)[lo:hi]
        line = np.zeros((2,) + p_fwd.shape)
        line[0, :, lo:hi] = p_fwd[:, lo:hi] * (up * w)
        line[1, :, lo:hi] = p_bwd[:, lo:hi] * (down * w)
        # The block's cells [s, s+1] .. [e-1, e], between two zeros.
        cf, cb = (np.pad(_oracle_cells(q)[:, s:e], ((0, 0), (1, 1)))
                  for q in line)
        F[:, s + 1:e + 1] = (np.cumsum(cf, axis=1)[:, 1:-1]
                             * down[s + 1 - lo:e + 1 - lo])
        B[:, s:e] = (np.cumsum(cb[:, ::-1], axis=1)[:, -2:0:-1]
                     * up[s - lo:e - lo])
    for s, e in blocks[1:]:
        F[:, s + 1:e + 1] += F[:, s:s + 1] * np.exp(G[s] - G[s + 1:e + 1])
    for s, e in blocks[-2::-1]:
        B[:, s:e] += B[:, e:e + 1] * np.exp(G[s:e] - G[e])
    return F, B


def _cell_scan(G, b):
    # I[0] = 0, I[k] = exp(-(G[k]-G[k-1])) I[k-1] + b[k-1], in blocks of
    # 30 kernel units with a zero carry added to every block.
    n = G.size
    out = np.zeros(b.shape[:-1] + (n,))
    carry = np.zeros(b.shape[:-1] + (1,))
    for s, e in _blocks(G, 30.0):
        L = G[s:e + 1] - G[s]
        acc = np.cumsum(b[..., s:e] * np.exp(L[1:]), axis=-1)
        out[..., s + 1:e + 1] = np.exp(-L[1:]) * (carry + acc)
        carry = out[..., e:e + 1]
    return out


def _line_rules(n):
    # The first node and the weights of each cell's eight samples:
    # centred, and one-sided on the three cells at either end.
    start = np.clip(np.arange(n - 1) - 3, 0, n - 8)
    weights = np.tile(CELL_RULE, (n - 1, 1))
    weights[[0, 1, 2, -3, -2, -1]] = (FIRST_CELL, SECOND_CELL, THIRD_CELL,
                                      THIRD_CELL[::-1], SECOND_CELL[::-1],
                                      FIRST_CELL[::-1])
    return start[:, None] + np.arange(8), weights


def _seen_from_right_cells(p, G, dx):
    # Cell [j, j+1] of p exp(-(G[j+1] - G)), the integrand seen from
    # xi_j+1: the cell rule on its values at the eight nodes of the cell,
    # each p[k] exp(G[k] - G[j+1]).
    nodes, weights = _line_rules(G.size)
    seen = p[:, nodes] * np.exp(G[nodes] - G[1:, None])
    return dx * np.einsum("kjw,jw->kj", seen, weights)


def _cell_rule_halves(G, grid, p_fwd, p_bwd):
    """The halves as two recursions over cells, the backward one on the
    reversed line, each cell decaying by exp(-diff(G))."""
    fwd = _cell_scan(G, _seen_from_right_cells(p_fwd, G, grid.dx))
    G_rev = G[-1] - G[::-1]
    b_bwd = _seen_from_right_cells(p_bwd[:, ::-1], G_rev, grid.dx)
    bwd = _cell_scan(G_rev, b_bwd)[:, ::-1]
    return fwd, bwd


def _explicit_potential(y, grid):
    # G with its cells written out: dx/120960 (68323 (y_j + y_j+1) - 9531
    # (y_j-1 + y_j+2) + 1879 (y_j-2 + y_j+3) - 191 (y_j-3 + y_j+4)), the
    # one-sided rules on the three cells at either end, and the trapezoid
    # where a cell is negative.
    nodes, weights = _line_rules(y.size)
    cells = grid.dx * np.einsum("jw,jw->j", y[nodes], weights)
    cells[3:-3] = (grid.dx / 120960.0) * (
        68323.0 * (y[3:-4] + y[4:-3]) - 9531.0 * (y[2:-5] + y[5:-2])
        + 1879.0 * (y[1:-6] + y[6:-1]) - 191.0 * (y[:-7] + y[7:]))
    trap = (0.5 * grid.dx) * (y[:-1] + y[1:])
    cells = np.where(cells < 0.0, trap, cells)
    return np.concatenate(([0.0], np.cumsum(cells)))


def _oracle_integrands(q, A, B, sinA, sinB, cA, sA, cB):
    i1 = q * (A * A * B * cA * cB + 0.25 * A * sinA * sinB + 0.5 * B * sA * cB)
    return i1, q * (sA * sinB)


def _oracle_angle_rate(A, B, cA, sA, drive):
    return 2.0 * A * A * B * cA - B * sA - 2.0 * drive * cA


def _oracle_slope_factors(angle):
    # With the slope T = tan(angle/2): sin = 2T/(1+T^2),
    # cos^2(angle/2) = 1/(1+T^2) and sin^2(angle/2) = T^2/(1+T^2).
    T = np.tan(0.5 * angle)
    c = 1.0 / (T * T + 1.0)
    return (2.0 * T) * c, c, (T * T) * c


def _oracle_fields(state):
    U, V, W, Z, q = state.data[:5]
    sinW, cw, sw = _oracle_slope_factors(W)
    sinZ, cz, sz = _oracle_slope_factors(Z)
    G = _explicit_potential(q * (cw * cz), state.grid)
    return U, V, q, sinW, sinZ, cw, sw, cz, sz, G


def _oracle_rates(U, V, q, sinW, sinZ, cw, sw, cz, sz, rate_u, rate_v,
                  drive_w, drive_z):
    dq = q * (U * U * V + 0.5 * V - drive_w) * sinW \
        + q * (V * V * U + 0.5 * U - drive_z) * sinZ
    return np.stack((rate_u, rate_v,
                     _oracle_angle_rate(U, V, cw, sw, drive_w),
                     _oracle_angle_rate(V, U, cz, sz, drive_z),
                     dq, U * V))


def _slope_integrands(A, B, TA, TB):
    # f1 -+ f2/2, f1 = A^2 B + A TA TB + B TA^2/2, f2 = TA^2 TB; the
    # halves integrate them at weight y_xi/2.
    half_t2 = (0.5 * TA) * TA
    f1 = (A * TA * TB + A * A * B) + B * half_t2
    f2_half = half_t2 * TB
    return f1 - f2_half, f1 + f2_half


def _slope_rates(U, V, q, TW, TZ, cw, cz, rate_u, rate_v, drive_w, drive_z):
    # With e2 = 2 (A^2 B - drive): the angle rate c (e2 - B T^2) and the
    # q rate q (T c (e2 + B) + the same with roles swapped).
    e2_w, e2_z = 2.0 * (U * U * V - drive_w), 2.0 * (V * V * U - drive_z)
    dq = ((e2_w + V) * TW * cw + (e2_z + U) * TZ * cz) * q
    return np.stack((rate_u, rate_v, (e2_w - V * TW * TW) * cw,
                     (e2_z - U * TZ * TZ) * cz, dq, U * V))


def oracle_rhs(state):
    """rhs written once per component in the slopes T = tan(angle/2) and
    c = 1/(1 + T^2), the roles swapped by hand.

    P1 = E * y_xi f1 / 2 and P2 = E * y_xi f2 / 4, so the U rate
    -dx P1 - P2 and the drive P1 + dx P2 are F - B and F + B, with F the
    forward half of y_xi (f1/2 - f2/4) and B the backward half of
    y_xi (f1/2 + f2/4).
    """
    U, V, W, Z, q = state.data[:5]
    TW, TZ = np.tan(0.5 * W), np.tan(0.5 * Z)
    cw, cz = 1.0 / (TW * TW + 1.0), 1.0 / (TZ * TZ + 1.0)
    y = q * (cw * cz)
    p_fwd, p_bwd = _slope_integrands(U, V, TW, TZ)
    s_fwd, s_bwd = _slope_integrands(V, U, TZ, TW)
    (Fp, Fs), (Bp, Bs) = _oracle_halves(_oracle_potential(y, state.grid),
                                        y * 0.5,
                                        state.grid, np.stack((p_fwd, s_fwd)),
                                        np.stack((p_bwd, s_bwd)))
    return _slope_rates(U, V, q, TW, TZ, cw, cz,
                        Fp - Bp, Fs - Bs, Fp + Bp, Fs + Bs)


def four_source_rhs(state):
    """rhs from the four sources P1, P2, S1, S2 and their x-derivatives,
    each the sum and difference of its two halves, with the halves from
    the cell recursions and G with its cells written out."""
    U, V, q, sinW, sinZ, cw, sw, cz, sz, G = _oracle_fields(state)
    p1, p2 = _oracle_integrands(q, U, V, sinW, sinZ, cw, sw, cz)
    s1, s2 = _oracle_integrands(q, V, U, sinZ, sinW, cz, sz, cw)
    p = np.stack((p1, p2, s1, s2))
    fwd, bwd = _cell_rule_halves(G, state.grid, p, p)
    scale = np.array([0.5, 0.125, 0.5, 0.125])[:, None]
    P1, P2, S1, S2 = scale * (fwd + bwd)
    dxP1, dxP2, dxS1, dxS2 = scale * (bwd - fwd)
    return _oracle_rates(U, V, q, sinW, sinZ, cw, sw, cz, sz,
                         -dxP1 - P2, -dxS1 - S2, P1 + dxP2, S1 + dxS2)


@SIZES_AND_SPANS
def test_rhs_matches_per_component_oracle_bitwise(n, span, monkeypatch):
    if span is not None:
        monkeypatch.setattr(sources, "_BLOCK_SPAN", span)
    state = wide_random_state(n, seed=n + 1)
    assert same_bits(rhs(state), oracle_rhs(state))


def test_block_partition_matches_the_oracle_at_an_exact_tie(monkeypatch):
    # At a span of exactly G[-1] the oracle's searchsorted ends the first
    # block at n - 1; one ulp less, at n - 2, with [n-2, n-1] after it.
    # Offsets in U and V keep the integrands nonzero at the right end.
    base = wide_random_state(512, seed=1)
    state = base.with_fields(U=base.U + 0.3, V=base.V - 0.15)
    _, cw, _ = _oracle_slope_factors(state.W)
    _, cz, _ = _oracle_slope_factors(state.Z)
    G = _oracle_potential(state.q * (cw * cz), state.grid)
    results = []
    for span, blocks in [(G[-1], 1), (np.nextafter(G[-1], 0.0), 2)]:
        monkeypatch.setattr(sources, "_BLOCK_SPAN", span)
        assert len(_blocks(G, span)) == blocks
        results.append(rhs(state))
        assert same_bits(results[-1], oracle_rhs(state))
    # The two partitions round differently, so a match pins each one.
    assert not same_bits(*results)


@pytest.mark.parametrize("n", [64, 512, 2048])
def test_rhs_matches_four_source_oracle_to_roundoff(n):
    # Forming the two halves first regroups sums of the same terms, and
    # the cell recursions weight the same cells' nodes in another order,
    # so only rounding separates the two formulas.
    state = wide_random_state(n, seed=n + 1)
    ref = four_source_rhs(state)
    bound = 64.0 * np.finfo(float).eps * np.max(np.abs(ref), axis=1)
    assert np.all(np.max(np.abs(rhs(state) - ref), axis=1) <= bound)


@pytest.mark.parametrize("n", [64, 512, 2048])
def test_rhs_near_the_levels_and_the_guard(n):
    # At every 7th node W and Z sit at a level, one ulp above pi or one
    # ulp inside the guard 3pi/2: there T reaches about 1.6e16 and c
    # about 4e-33.
    base = wide_random_state(n, seed=n + 2)
    near = np.array([np.pi, -np.pi, np.nextafter(np.pi, 4.0),
                     np.nextafter(1.5 * np.pi, 0.0),
                     np.nextafter(-1.5 * np.pi, 0.0)])
    W, Z = base.W.copy(), base.Z.copy()
    k = np.arange(0, n, 7)
    W[k], Z[k] = near[k % 5], near[(k // 7 + 2) % 5]
    state = base.with_fields(W=W, Z=Z)
    got = rhs(state)
    assert np.all(np.isfinite(got))
    ref = four_source_rhs(state)
    bound = 64.0 * np.finfo(float).eps * np.max(np.abs(ref), axis=1)
    assert np.all(np.max(np.abs(got - ref), axis=1) <= bound)
    swapped = state.with_fields(U=state.V, V=state.U, W=state.Z, Z=state.W)
    assert same_bits(rhs(swapped), got[SWAP])


def test_rhs_matches_oracle_on_negative_zero_angles():
    # With U = V = 0 and Z = -0.0 the P2 integrand is -0.0 everywhere,
    # and the S2 one wherever sin W < 0.  The P1 and S1 integrands are
    # +0.0, so the halves' integrands i1/2 - i2/8 and i1/2 + i2/8 are
    # +0.0 either way: the sums see only +0.0, so do the half-weight
    # terms taken off them, and dU = F - B is +0.0.
    base = wide_random_state(512)
    zero = np.zeros(base.grid.n)
    state = base.with_fields(U=zero, V=zero, Z=np.full(base.grid.n, -0.0))
    assert same_bits(rhs(state), oracle_rhs(state))


def test_rk4_zero_state_unchanged():
    g = make_grid(-5.0, 5.0, 64)
    s0 = flat_state(g)
    s1 = rk4_step(s0, 0.1, BOUNDS)
    assert state_sup_diff(s0, s1) == 0.0
    assert np.array_equal(s0.y, s1.y)


def test_rk4_rejects_zero_dt():
    g = make_grid(-5.0, 5.0, 64)
    with pytest.raises(ContractError):
        rk4_step(flat_state(g), 0.0, BOUNDS)


@pytest.mark.parametrize("other", [make_grid(-8.0, 8.0, 65),
                                   make_grid(-9.0, 8.0, 64)],
                         ids=["another-n", "another-span"])
def test_rk4_rejects_a_workspace_on_another_grid(other):
    # A Workspace for another n would fail to broadcast, and one for the
    # same n on another span would step with its own dx.  Its plan names
    # both grids, in rk4_step and in rhs handed the plan directly.
    state = random_state(np.random.default_rng(1), make_grid(-8.0, 8.0, 64))
    mismatch = re.escape(f"SourcePlan on {other} ") + ".*" + re.escape(
        f"on {state.grid}")
    with pytest.raises(ContractError, match=mismatch):
        rk4_step(state, 1e-2, BOUNDS, Workspace(other))
    with pytest.raises(ContractError, match=mismatch):
        rhs(state, None, Workspace(other).plan)


def test_rhs_rejects_a_kinked_plan_on_another_span():
    # Same n, same kink labels, another span: such a plan reads the kinks
    # at the wrong positions, and on this peakon its rhs was off by 2.4e-3
    # relative, with no error.
    g = make_grid(-20.0, 20.0, 513)
    state = transform_with_map(
        builtin_datum("peakon", {"c": 1.0, "center": 3.0}), g)
    plan = sources.SourcePlan(make_grid(-10.0, 10.0, g.n), kinks=state.kinks)
    with pytest.raises(ContractError, match="SourcePlan on Grid"):
        rhs(state, None, plan)
    # A plan on an equal grid passes.
    equal = sources.SourcePlan(make_grid(-20.0, 20.0, g.n), None, state.kinks)
    assert same_bits(rhs(state, None, equal), rhs(state))


@pytest.mark.parametrize("n, span", [(64, None), (512, None), (64, 5.0),
                                     (512, 5.0)],
                         ids=["64", "512", "64-span5", "512-span5"])
def test_evolve_with_one_workspace_matches_fresh_steps_bitwise(
        n, span, monkeypatch):
    # evolve steps through one Workspace and its source plan; each step
    # must equal a step that builds its buffers afresh.
    if span is not None:
        monkeypatch.setattr(sources, "_BLOCK_SPAN", span)
    state = wide_random_state(n, seed=n + 4)
    G = sources.kernel_accumulator(sources.xi_derivatives(state)[0],
                                   state.grid)
    assert (len(sources._blocks(G)) > 1) == (span is not None)
    traj = evolve(state, 0.05, 0.01, record_every=1, bounds=BOUNDS)
    assert next(traj) is state
    for recorded in traj:
        state = rk4_step(state, 0.01, BOUNDS, work=None)
        assert same_bits(recorded.data, state.data)


def test_rk4_step_allocates_only_the_new_state_and_the_cells():
    # After a warm-up step the plan holds every work row, so at its peak
    # a step holds no more than the size of the new state and the
    # correlate outputs (the kernel's n - 3 inner cells and the scans'
    # 4n + 1).
    # Measured: 316,053 bytes with per-call temporaries, 117,016 with the
    # plan, against a bound of 180,208.
    n = 2048
    state = wide_random_state(n, seed=5)
    work = Workspace(state.grid)
    state = rk4_step(state, 1e-3, BOUNDS, work)
    bound = 8 * (6 * n + (n - 3) + (4 * n + 1))
    peak = traced_peak(rk4_step, state, 1e-3, BOUNDS, work)
    assert peak <= bound, (peak, bound)


def test_rhs_is_2pi_periodic_in_the_angles():
    # The rates read W and Z only through T = tan(angle/2) and c, which
    # repeat with period 2pi, so a shift by whole turns moves rhs by
    # roundoff alone.
    for n in (64, 512):
        state = wide_random_state(n, seed=n + 3)
        turned = state.with_fields(W=state.W + 2.0 * np.pi,
                                   Z=state.Z - 2.0 * np.pi)
        ref = rhs(state)
        bound = 64.0 * np.finfo(float).eps * np.max(np.abs(ref), axis=1)
        assert np.all(np.max(np.abs(rhs(turned) - ref), axis=1) <= bound)


def strong_pair_state():
    # Amplitudes high enough that the dt^4 truncation error sits well
    # above roundoff over a short horizon.
    g = make_grid(-16.0, 16.0, 512)
    du = builtin_datum("gaussian_bump", {"a": 1.5, "center": -0.5, "width": 1.0})
    dv = builtin_datum("gaussian_bump", {"a": 1.0, "center": 0.5, "width": 1.2})
    return transform_with_map(pair_datum(du, dv), g)


def test_rk4_dt_convergence_rate():
    # Richardson oracle: errors against a dt/8 reference must shrink by
    # about 16 when dt is halved.
    state0 = strong_pair_state()

    def advance(dt, steps):
        s = state0
        for _ in range(steps):
            s = rk4_step(s, dt, BOUNDS)
        return s

    ref = advance(0.0125, 32)
    err_coarse = state_sup_diff(advance(0.1, 4), ref)
    err_fine = state_sup_diff(advance(0.05, 8), ref)
    rate = err_coarse / err_fine
    assert 10.0 < rate < 26.0, rate


def test_rk4_forward_backward_round_trip():
    # One step out and back cancels through O(dt^4); the residual is the
    # O(dt^5) local truncation mismatch between + and - steps.
    state0 = strong_pair_state()
    resid = []
    for dt in (0.2, 0.1):
        s1 = rk4_step(state0, dt, BOUNDS)
        s2 = rk4_step(s1, -dt, BOUNDS)
        resid.append(state_sup_diff(s2, state0))
    assert resid[0] < 1e-5
    # Halving dt cuts the round-trip residual by at least 2^4.
    assert resid[0] / resid[1] > 16.0


def test_evolve_trajectory_shape_and_times():
    g = make_grid(-16.0, 16.0, 256)
    state0 = transform_with_map(two_bump_pair(), g)
    traj = evolve(state0, 0.2, 0.01, record_every=5, bounds=BOUNDS)
    for s in traj:
        assert s.t == traj.times[-1]
        assert np.min(np.diff(s.y)) > -1e-9
    assert traj.times == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2])


def test_evolve_contract_errors():
    # Bad arguments and a state0 outside the box raise at the call,
    # before any iteration.
    g = make_grid(-16.0, 16.0, 256)
    state0 = transform_with_map(two_bump_pair(), g)
    with pytest.raises(ContractError):
        evolve(state0, 0.2, 0.0, bounds=BOUNDS)
    with pytest.raises(ContractError):
        evolve(state0, 0.05, 0.02, bounds=BOUNDS)
    with pytest.raises(ContractError):
        evolve(state0, 0.2, 0.01, record_every=0, bounds=BOUNDS)
    with pytest.raises(NumericalAbort, match="q left") as exc:
        evolve(state0, 0.2, 0.01, bounds=OmegaBounds(q_lo=2.0, q_hi=3.0))
    assert not isinstance(exc.value, EvolveAbort)


@pytest.mark.parametrize("step, times, name", [
    (evolve, (1.0, np.nan), "dt"),
    (evolve, (np.inf, 0.1), "t_final"),
    (evolve, (1.0, np.inf), "dt"),
    (evolve, (np.nan, 0.1), "t_final"),
    (rk4_step, (np.nan,), "dt"),
    (rk4_step, (-np.inf,), "dt"),
    (rk4_step, (np.inf,), "dt"),
], ids=["evolve-dt-nan", "evolve-t_final-inf", "evolve-dt-inf",
        "evolve-t_final-nan", "rk4_step-dt-nan", "rk4_step-dt--inf",
        "rk4_step-dt-inf"])
def test_nonfinite_time_arguments_are_contract_errors(step, times, name):
    state = flat_state(make_grid(-5.0, 5.0, 64))
    with pytest.raises(ContractError, match=rf"\b{name}\b"):
        step(state, *times)


def test_evolve_symmetric_data_stays_bitwise_symmetric():
    g = make_grid(-16.0, 16.0, 512)
    datum = builtin_datum("gaussian_bump", {"a": 0.6, "width": 1.2})
    state0 = transform_with_map(datum, g)
    traj = evolve(state0, 0.5, 0.005, record_every=20, bounds=BOUNDS)
    for s in traj:
        assert np.array_equal(s.U, s.V)
        assert np.array_equal(s.W, s.Z)
    for c in traj.conserved_log:
        assert c.E_u == c.E_v


def test_evolve_backward_time():
    g = make_grid(-16.0, 16.0, 256)
    state0 = transform_with_map(two_bump_pair(), g)
    traj = evolve(state0, -0.1, -0.01, record_every=10, bounds=BOUNDS)
    assert [s.t for s in traj] == traj.times == pytest.approx([0.0, -0.1])


@pytest.mark.parametrize("slack, records", [(None, 21), (1.05, 5),
                                             (1.0 + 1e-12, 1)],
                         ids=["full", "abort", "abort-at-once"])
def test_evolve_streams_each_record(slack, records):
    # Iteration yields state0 first, by identity, then the states of a
    # hand-chained rk4_step loop re-timed to t0 + k dt, bit for bit, and
    # before each one appends its time, conserved set and y check to
    # logs that are never rebound.  A q box with 5% slack around the
    # initial profile trips at step 5, one with none at step 1:
    # EvolveAbort comes from the iteration, names the step, and the logs
    # hold the records before it.  A second iteration steps nothing.
    g = make_grid(-16.0, 16.0, 256)
    datum = builtin_datum("gaussian_bump", {"a": 1.0, "width": 1.0})
    state0 = transform_with_map(datum, g)
    bounds = BOUNDS if slack is None else OmegaBounds(
        q_lo=float(np.min(state0.q)), q_hi=float(np.max(state0.q)),
        slack=slack)
    traj = evolve(state0, 0.2, 0.01, record_every=1, bounds=bounds)
    logs = (traj.times, traj.conserved_log, traj.y_checks)
    assert logs == ([], [], [])
    yielded = []
    with pytest.raises(EvolveAbort) if slack else nullcontext() as exc:
        for state in traj:
            yielded.append(state)
    assert len(yielded) == records
    assert yielded[0] is state0
    state = state0
    for k, got in enumerate(yielded[1:], 1):
        state = rk4_step(state, 0.01, bounds)
        state = state.with_fields(t=state0.t + k * 0.01)
        assert got.t == state.t and same_bits(got.data, state.data)
    if slack:
        assert exc.value.diagnostics["step"] == records
        with pytest.raises(NumericalAbort):
            rk4_step(state, 0.01, bounds)
    assert all(a is b for a, b in zip(
        logs, (traj.times, traj.conserved_log, traj.y_checks), strict=True))
    assert traj.times == [s.t for s in yielded]
    assert traj.conserved_log == [conserved(s) for s in yielded]
    assert traj.y_checks == [y_formula_gap(s) for s in yielded]
    assert list(traj) == [] and len(traj.times) == len(yielded)


def test_conserved_zero_state():
    g = make_grid(-5.0, 5.0, 64)
    c = conserved(flat_state(g))
    assert (c.E_u, c.E_v, c.G, c.H) == (0.0, 0.0, 0.0, 0.0)


def test_conserved_peakon_energy_oracle():
    # Closed form: for u0 = e^{-|x|}, both integrals of u^2 and ux^2 are 1.
    g = make_grid(-20.0, 20.0, 2048)
    datum = builtin_datum("peakon", {"c": 1.0, "center": 0.0})
    state = transform_with_map(datum, g)
    assert conserved(state).E_u == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("n", [512, 513],
                         ids=["kink-between-nodes", "kink-on-a-node"])
def test_conserved_reads_the_peakon_kink(n):
    # For u0 = v0 = e^{-|x|}, E_u = E_v = G = 2 and H = 4 (H's density is
    # 8 u^4).  Near the crest's label the quadrature takes the piecewise
    # 8-point weights, so every functional lands within 1e-8 (2.2e-9 at
    # most, measured); the trapezoid across the kink misses H by 5e-4,
    # and every functional by 4e-2 where a node sits on the kink.
    g = make_grid(-20.0, 20.0, n)
    state = transform_with_map(builtin_datum("peakon", {"c": 1.0}), g)
    c = conserved(state)
    assert state.kinks == (0.0,)
    errors = [abs(c.E_u - 2.0), abs(c.E_v - 2.0), abs(c.G - 2.0),
              abs(c.H - 4.0)]
    assert max(errors) <= 1e-8, errors


def test_kinks_ride_along_and_a_plan_must_match_them():
    g = make_grid(-20.0, 20.0, 256)
    state = transform_with_map(builtin_datum("peakon", {"c": 1.0}), g)
    assert state.kinks == (0.0,)
    assert rk4_step(state, 1e-3).kinks == (0.0,)
    assert state.with_fields(t=1.0, U=state.V).kinks == (0.0,)
    traj = evolve(state, 0.01, 1e-3, record_every=5)
    assert [s.kinks for s in traj] == [(0.0,)] * 3
    with pytest.raises(ContractError, match="kinks"):
        rhs(state, plan=sources.SourcePlan(g))
    with pytest.raises(ContractError, match="kinks"):
        rk4_step(state, 1e-3, work=Workspace(g))


def test_conserved_positivity_combination():
    # 7 E_u E_v - H stays nonnegative on transformed data.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(0.2, 0.9))
        b = float(rng.uniform(0.2, 0.9))
        g = make_grid(-16.0, 16.0, 512)
        du = builtin_datum("gaussian_bump", {"a": a, "width": 1.2})
        dv = builtin_datum("gaussian_bump", {"a": b, "center": 0.5, "width": 0.9})
        state = transform_with_map(pair_datum(du, dv), g)
        c = conserved(state)
        assert c.E_u >= 0.0 and c.E_v >= 0.0
        assert 7.0 * c.E_u * c.E_v - c.H >= -1e-12


def test_y_formula_gap_small_on_transformed_data():
    g = make_grid(-16.0, 16.0, 1024)
    state0 = transform_with_map(two_bump_pair(), g)
    assert y_formula_gap(state0) < 10.0 * g.dx**2


def test_y_formula_gap_falls_at_fourth_order_on_the_steep_front():
    # y_formula_gap compares the integrated y with the 8-point potential
    # G, the kernel's own quadrature, so on smooth data the gap at t = 1
    # falls at least 10x per grid doubling.
    datum = pair_datum(
        builtin_datum("gaussian_bump", {"a": 2.0, "width": 1.0}),
        builtin_datum("gaussian_bump", {"a": 0.7, "width": 2.0}))
    gaps = []
    for n in (512, 1024, 2048):
        state = transform_with_map(datum, make_grid(-20.0, 20.0, n))
        *_, last = evolve(state, 1.0, 2e-3, record_every=500)
        gaps.append(y_formula_gap(last))
    falls = [a / b for a, b in zip(gaps, gaps[1:])]
    assert min(falls) >= 10.0, (gaps, falls)


def test_zero_profile_evolution_is_static():
    g = make_grid(-8.0, 8.0, 128)
    zero = builtin_datum("gaussian_bump", {"a": 0.0})
    state0 = transform_with_map(zero, g)
    *_, last = evolve(state0, 0.3, 0.01, record_every=10, bounds=BOUNDS)
    assert np.max(np.abs(last.U)) == 0.0
    assert np.max(np.abs(last.q - 1.0)) == 0.0


def test_check_omega_names_the_angle_bound_it_enforced():
    g = make_grid(-4.0, 4.0, 64)
    state = flat_state(g)
    state = state.with_fields(W=np.full(g.n, 0.6 * np.pi),
                              Z=np.full(g.n, -0.2 * np.pi))
    check_omega(state, OmegaBounds(angle_max=0.75 * np.pi))
    with pytest.raises(NumericalAbort, match=r"angle bound 0\.5pi") as info:
        check_omega(state, OmegaBounds(angle_max=0.5 * np.pi))
    assert info.value.diagnostics["w_max"] == pytest.approx(0.6 * np.pi)
    assert info.value.diagnostics["z_max"] == pytest.approx(0.2 * np.pi)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_check_omega_rejects_a_non_finite_entry(value):
    g = make_grid(-4.0, 4.0, 64)
    state = flat_state(g)
    for row in range(6):
        data = state.data.copy()
        data[row, 17] = value
        bad = TransformedState(0.25, g, data)
        with pytest.raises(NumericalAbort, match="non-finite state entry") as info:
            check_omega(bad, BOUNDS)
        assert info.value.diagnostics == {"t": 0.25}


def test_check_omega_passes_a_finite_state_whose_sum_overflows():
    # U is not bounded by Omega; two entries of 1e308 overflow a sum of
    # the state, but no entry is non-finite, so the guard passes, and
    # without a warning.
    g = make_grid(-4.0, 4.0, 64)
    U = np.zeros(g.n)
    U[[3, 40]] = 1e308
    state = flat_state(g).with_fields(U=U)
    with np.errstate(over="ignore"):
        assert np.sum(state.data) == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_omega(state, BOUNDS)


def test_check_omega_reads_max_abs_angle_from_either_sign():
    g = make_grid(-4.0, 4.0, 64)
    W = np.linspace(-0.7, 0.3, g.n) * np.pi
    state = flat_state(g).with_fields(W=W, Z=np.full(g.n, -0.0))
    with pytest.raises(NumericalAbort, match="angle bound") as info:
        check_omega(state, OmegaBounds(angle_max=0.5 * np.pi))
    assert info.value.diagnostics["w_max"] == np.max(np.abs(W))
    # max |Z| of a row of -0.0 is +0.0, as abs gives it.
    assert np.copysign(1.0, info.value.diagnostics["z_max"]) == 1.0
