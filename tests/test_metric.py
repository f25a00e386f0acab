"""Tangent-norm, path-length, and distance contracts."""
from importlib.util import find_spec
from pathlib import Path

import numpy as np
import pytest

from novlab import (AnalysisError, ContractError, OmegaBounds, builtin_datum,
                    distance_upper, evolve, lipschitz_experiment, make_grid,
                    pair_datum, path_length, straight_line_path,
                    load_config, tangent_norm_info, transform_with_map)
from novlab import metric
from novlab.cliio import datum_from_config, perturbed_datum
from novlab.validation import random_state, random_tangent

from conftest import same_bits

BOUNDS = OmegaBounds(0.01, 100.0, 1.5)
REPO = Path(__file__).resolve().parents[1]


def random_draw(n, seed):
    """A random state and tangent on the n-node grid of [-8, 8]."""
    rng = np.random.default_rng(seed)
    g = make_grid(-8.0, 8.0, n)
    return random_state(rng, g), random_tangent(rng, g)


def lipschitz_ends():
    """The lipschitz config and its datum pair, transformed at t = 0."""
    cfg = load_config(REPO / "configs" / "lipschitz.cfg")
    g = make_grid(cfg.xi_min, cfg.xi_max, cfg.n)
    datum0 = datum_from_config(cfg)
    return cfg, [transform_with_map(d, g)
                 for d in (datum0, perturbed_datum(datum0, cfg))]


def test_norm_without_passes_is_the_eta_zero_value(monkeypatch):
    # iters = 0, the default, searches no shift: the eta terms drop out,
    # so the norm builds no shift operator, reads no xi-derivatives and
    # equals eta_zero_value, the phis written out, bit for bit.  One
    # draw often keeps the bits of a sum taken in another order, so
    # eight more at n = 512 follow the first.
    draws = [random_draw(128, 24)]
    state = draws[0][0]
    with pytest.raises(ContractError):
        tangent_norm_info(state, np.zeros((5, 128)), alpha=1.5)
    with pytest.raises(ContractError, match="eta_nodes"):
        tangent_norm_info(state, np.zeros((5, 128)), eta_nodes=1, iters=1)
    draws += [random_draw(512, [512, seed]) for seed in range(8)]

    def unused(*args):
        raise AssertionError("a norm without passes searched a shift")

    monkeypatch.setattr(metric, "_state_derivatives", unused)
    monkeypatch.setattr(metric, "_shift_operator", unused)
    for state, tan in draws:
        value0 = np.float64(eta_zero_value(state, tan)).tobytes()
        for info in (tangent_norm_info(state, tan),
                     tangent_norm_info(state, tan, iters=0)):
            assert info.iterations == 0 and info.best_coeffs is None
            assert info.value == info.eta_zero_value
            assert np.float64(info.value).tobytes() == value0


@pytest.mark.parametrize("shape", [(6, 128), (5, 127), (5,), (5, 128, 1)],
                         ids=["state_rows", "wrong_length", "one_row",
                              "three_d"])
def test_norm_rejects_mis_shaped_tangent(shape):
    g = make_grid(-8.0, 8.0, 128)
    state = random_state(np.random.default_rng(27), g)
    with pytest.raises(ContractError):
        tangent_norm_info(state, np.zeros(shape))


@pytest.mark.parametrize("iters", [0, 5])
def test_tangent_norm_forms_the_slopes_once(monkeypatch, iters):
    # z_shift and the shift operator's xi-derivatives share one
    # evaluation of the slopes.
    from novlab import sources
    state, tan = random_draw(128, 26)
    calls = []
    real = sources.slope_factors

    def counted(st):
        calls.append(st)
        return real(st)

    monkeypatch.setattr(metric, "slope_factors", counted)
    monkeypatch.setattr(sources, "slope_factors", counted)
    info = tangent_norm_info(state, tan, iters=iters)
    assert len(calls) == 1
    assert (info.iterations > 0) == (iters > 0)


def eta_zero_value(state, tangent):
    """The weighted phi sum at eta = 0, each phi written out: z q, R q,
    S q, A q / 2, B q / 2 and Q."""
    R, S, A, B, Q = tangent
    q = state.q
    z = metric.z_shift(state, tangent)
    w = metric._quad_weights(state.grid, state.y, 0.5)
    phis = (z * q, R * q, S * q, 0.5 * A * q, 0.5 * B * q, Q)
    return float(sum(w @ np.abs(p) for p in phis))


def dense_shift_matrix(op):
    """K as a dense (6 n, m) matrix: the applies of the unit coefficients."""
    return np.stack([op.apply(e).ravel() for e in np.eye(op.size)], axis=1)


def test_descent_moves_off_eta_zero_at_t0():
    # At t = 0 of the lipschitz config a pass reweighted from the eta = 0
    # residuals moves the value by 1e-7 of itself only; a search that
    # took that for convergence would stop at about the eta = 0 value.
    # The minimum is 0.8152 times the eta = 0 value.
    # test_path_norms_certified_by_the_lp[0.0] certifies this norm
    # against the LP: at theta-node 0 its path has this state, and this
    # tangent to 4e-13 relative.
    _, (s0, s1) = lipschitz_ends()
    info = tangent_norm_info(s0, s1.data[:5] - s0.data[:5], iters=200)
    assert info.value <= 0.82 * info.eta_zero_value


def test_descent_of_a_zero_tangent_is_zero_at_once():
    rng = np.random.default_rng(25)
    g = make_grid(-8.0, 8.0, 128)
    state = random_state(rng, g)
    info = tangent_norm_info(state, np.zeros((5, g.n)), iters=200)
    assert info.value == 0.0 and info.iterations == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_descent_of_a_non_finite_tangent_stops_at_once(bad):
    state, tan = random_draw(128, 29)
    tan[2, 40] = bad
    info = tangent_norm_info(state, tan, iters=200)
    plain = tangent_norm_info(state, tan)
    assert not np.isfinite(info.value) and info.iterations == 0
    assert (np.float64(info.value).tobytes()
            == np.float64(plain.value).tobytes())


@pytest.mark.parametrize("eta_nodes", [40, 65])
def test_descent_rejects_an_empty_coarse_cell(eta_nodes):
    # 33 nodes leave some of the 39 or 64 coarse cells empty, which
    # would make the normal matrix singular.
    state, tan = random_draw(33, 31)
    with pytest.raises(ContractError, match="holds no grid node"):
        tangent_norm_info(state, tan, eta_nodes=eta_nodes, iters=200)


def test_descent_with_a_singular_normal_matrix_keeps_its_best():
    # Far out on a wide window the weights exp(-alpha |y|) underflow to
    # zero, every row of the outer cells vanishes and the normal matrix
    # is singular: IRLS stops at its first pass instead of raising
    # LinAlgError, and the coordinate sweep still runs.
    g = make_grid(-4000.0, 4000.0, 257)
    state = random_state(np.random.default_rng(32), g)
    tan = random_tangent(np.random.default_rng(33), g)
    info = tangent_norm_info(state, tan, iters=200)
    assert info.iterations == 0
    assert info.value <= info.eta_zero_value
    assert info.value == metric.shift_value(state, tan, info.best_coeffs)


def operator_case(seed, eta_nodes=9):
    rng = np.random.default_rng(seed)
    g = make_grid(-8.0, 8.0, 128)
    state = random_state(rng, g)
    tan = random_tangent(rng, g)
    P0 = metric._phi_zero(state, tan)
    op = metric._shift_operator(state, eta_nodes)
    assert op.band.shape == (2, 6, g.n) and op.size == eta_nodes
    half = 0.5 * (g.xi_max - g.xi_min) / (eta_nodes - 1)
    draws = [rng.uniform(-half, half, eta_nodes) for _ in range(4)]
    return state, tan, P0, op, draws


def test_shift_operator_gives_the_six_phis():
    # P0 + K c is the phi stack of the shift with coefficients c, each
    # phi written out here, within 1e-14 of each row's scale.
    state, tan, P0, op, draws = operator_case(26)
    g = state.grid
    y_xi, u_xi, v_xi, w_xi, z_xi, q_xi = metric._state_derivatives(state)
    z = metric.z_shift(state, tan)
    q = state.q
    R, S, A, B, Q = tan
    for c in draws:
        coarse = np.linspace(g.xi_min, g.xi_max, c.size)
        cells = np.clip(np.searchsorted(coarse, g.nodes, side="right") - 1,
                        0, c.size - 2)
        eta_v = np.interp(g.nodes, coarse, c)
        eta_p = (np.diff(c) / np.diff(coarse))[cells]
        expected = np.array((
            (z + eta_v * y_xi) * q, (R + eta_v * u_xi) * q,
            (S + eta_v * v_xi) * q, 0.5 * (A + eta_v * w_xi) * q,
            0.5 * (B + eta_v * z_xi) * q, Q + eta_v * q_xi + eta_p * q))
        rows = P0 + op.apply(c)
        scale = np.max(np.abs(expected), axis=1, keepdims=True)
        assert np.all(np.abs(rows - expected) <= 1e-14 * scale)


def test_shift_operator_transpose_is_the_subgradient():
    # K^T (w sign P) is the subgradient that this test assembles by
    # hand: the sign rows weighted by the xi-derivatives, projected on
    # the hats, and the q sign row on their slopes.
    state, tan, P0, op, draws = operator_case(28)
    g = state.grid
    weights = metric._quad_weights(g, state.y, 0.5)
    y_xi, u_xi, v_xi, w_xi, z_xi, q_xi = metric._state_derivatives(state)
    q = state.q
    m = op.size
    coarse = np.linspace(g.xi_min, g.xi_max, m)
    spacing = coarse[1] - coarse[0]
    hat = np.maximum(0.0, 1.0 - np.abs(g.nodes[None, :] - coarse[:, None])
                     / spacing)
    idx = np.clip(np.searchsorted(coarse, g.nodes, side="right") - 1,
                  0, m - 2)
    hat_p = np.zeros((m, g.n))
    hat_p[idx, np.arange(g.n)] = -1.0 / spacing
    hat_p[idx + 1, np.arange(g.n)] = 1.0 / spacing
    for c in draws:
        signs = np.sign(P0 + op.apply(c))
        s1, s2, s3, s4, s5, s6 = signs
        core = (s1 * y_xi + s2 * u_xi + s3 * v_xi
                + 0.5 * s4 * w_xi + 0.5 * s5 * z_xi) * q + s6 * q_xi
        expected = hat @ (weights * core) + hat_p @ (weights * s6 * q)
        got = op.adjoint(weights * signs)
        np.testing.assert_allclose(got, expected, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(expected)))


def test_normal_matrix_is_the_weighted_gram_of_k():
    # The tridiagonal normal matrix equals K^T diag(omega) K of the
    # dense K whose columns are the applies of the unit coefficients.
    state, _, _, op, _ = operator_case(34)
    K = dense_shift_matrix(op)
    omega = np.random.default_rng(35).uniform(0.5, 2.0, (6, state.grid.n))
    dense = K.T @ (omega.ravel()[:, None] * K)
    got = op.normal_matrix(omega)
    np.testing.assert_allclose(got, dense, rtol=0.0,
                               atol=1e-13 * np.max(np.abs(dense)))
    assert not np.any(np.triu(got, 2)) and not np.any(np.tril(got, -2))


def test_hat_space_is_built_once_per_grid_and_size():
    # The coarse cells depend on the grid and eta_nodes only: two norms
    # on one pair share them, read-only, and an empty cell still raises.
    state, other = random_draw(128, 36)[0], random_draw(128, 37)[0]
    ops = [metric._shift_operator(st, 9) for st in (state, other)]
    assert ops[0].index is ops[1].index
    assert ops[0].parities is ops[1].parities
    assert not ops[0].index.flags.writeable
    assert metric._shift_operator(state, 17).index is not ops[0].index
    for _ in range(2):
        with pytest.raises(ContractError, match="holds no grid node"):
            metric._shift_operator(state, 200)


def two_sort_sweep(op, weights, P0, c):
    """The coordinate sweep with its entries row-major, ordered by two
    argsorts over all of them: by kink, then stably by coefficient."""
    m = op.size
    c = c.copy()
    P = P0 + op.apply(c)
    w = np.broadcast_to(weights, P.shape).ravel()
    for parity in (0, 1):
        upper = op.index[0] % 2 != parity
        coef = np.where(upper, op.index[1], op.index[0])
        col = np.where(upper, op.band[1], op.band[0])
        k = col.ravel()
        live = (k != 0.0) & (w > 0.0)
        seg = np.broadcast_to(coef, P.shape).ravel()[live]
        kink = -P.ravel()[live] / k[live]
        weight = w[live] * np.abs(k[live])
        by_kink = np.argsort(kink)
        order = by_kink[np.argsort(seg[by_kink], kind="stable")]
        total = np.bincount(seg, weight, m)
        js = np.arange(parity, m, 2)
        js = js[total[js] > 0.0]
        pos = np.searchsorted(np.cumsum(weight[order]),
                              np.cumsum(total)[js] - 0.5 * total[js])
        runs = seg[order]
        pos = np.clip(pos, np.searchsorted(runs, js),
                      np.searchsorted(runs, js, side="right") - 1)
        step = np.zeros(m)
        step[js] = (c[js] + kink[order][pos]) - c[js]
        c += step
        P += col * step[coef]
    return c


def assert_sweeps_match(state, tangent, eta_nodes, seed):
    """Three chained sweeps from each of three starts, bit for bit those
    of two_sort_sweep: eta = 0, a random shift and a searched one."""
    weights = metric._quad_weights(state.grid, state.y, 0.5)
    P0 = metric._phi_zero(state, tangent)
    op = metric._shift_operator(state, eta_nodes)
    half = 0.5 * (state.grid.xi_max - state.grid.xi_min) / (eta_nodes - 1)
    starts = (np.zeros(eta_nodes),
              np.random.default_rng(seed).uniform(-half, half, eta_nodes),
              tangent_norm_info(state, tangent, eta_nodes=eta_nodes,
                                iters=3).best_coeffs)
    for c in starts:
        for _ in range(3):
            got = metric._coordinate_sweep(op, weights, P0, c)
            assert same_bits(got, two_sort_sweep(op, weights, P0, c))
            c = got


@pytest.mark.parametrize("n", [64, 128, 512])
@pytest.mark.parametrize("eta_nodes", [9, 17])
def test_sweep_matches_the_two_sort_order_bitwise(n, eta_nodes):
    # Node-major, each coefficient's live entries are one run, which one
    # sort by kink orders as the two sorts over all entries do.
    for seed in range(3):
        assert_sweeps_match(*random_draw(n, [n, eta_nodes, seed]),
                            eta_nodes, seed)


def test_sweep_matches_the_two_sort_order_through_zero_kinks():
    # At t = 0 the two data share q, so the Q row of the path tangents
    # vanishes, and on the searched shift about 90 entries of that row
    # are zero: many kinks tie at zero, and ties may order differently
    # in the two sorts.
    path = lipschitz_path()
    for j in (0, 4, 8):
        state, tan = path.states[j], metric._path_tangent(path, j)
        assert not np.any(tan[4])
        assert_sweeps_match(state, tan, 17, j)


def endpoint_states():
    g = make_grid(-12.0, 12.0, 256)
    d0 = pair_datum(builtin_datum("gaussian_bump", {"a": 0.5, "width": 1.5}),
                    builtin_datum("gaussian_bump", {"a": 0.5, "width": 1.5}))
    d1 = pair_datum(builtin_datum("gaussian_bump", {"a": 0.6, "width": 1.3}),
                    builtin_datum("gaussian_bump", {"a": 0.4, "width": 1.7}))
    return transform_with_map(d0, g), transform_with_map(d1, g)


def test_straight_line_path_hits_endpoints_exactly():
    s0, s1 = endpoint_states()
    path = straight_line_path(s0, s1, 7, BOUNDS)
    assert path.theta_nodes[0] == 0.0 and path.theta_nodes[-1] == 1.0
    assert path.states[0] is s0 and path.states[-1] is s1
    mid = path.states[3]
    assert np.allclose(mid.U, 0.5 * (s0.U + s1.U), atol=1e-15)
    assert np.allclose(mid.y, 0.5 * (s0.y + s1.y), atol=1e-15)


def test_straight_line_path_rejects_invalid_interior():
    # Force an interior angle excursion past the structural bound by
    # interpolating between wrapped and unwrapped copies of one state.
    s0, s1 = endpoint_states()
    shifted = s0.with_fields(W=s0.W + 2.9 * np.pi)
    with pytest.raises(AnalysisError):
        straight_line_path(s0, shifted, 9, BOUNDS)


def test_path_length_positive_and_reversal_symmetric():
    s0, s1 = endpoint_states()
    fwd = straight_line_path(s0, s1, 9, BOUNDS)
    bwd = straight_line_path(s1, s0, 9, BOUNDS)
    lf = path_length(fwd)
    lb = path_length(bwd)
    assert lf > 0.0
    assert lf == pytest.approx(lb, rel=1e-12)


def test_path_length_excludes_angle_touching_nodes():
    # Shift one interior node's worth of angle to pi: the length must
    # still be finite and computed from the kept nodes.
    s0, s1 = endpoint_states()
    path = straight_line_path(s0, s1, 9, BOUNDS)
    states = list(path.states)
    W = states[4].W.copy()
    W[128] = np.pi
    states[4] = states[4].with_fields(W=W)
    from novlab.metric import PathOfStates
    touched = PathOfStates(path.theta_nodes, tuple(states))
    val = path_length(touched)
    assert np.isfinite(val) and val > 0.0
    all_touched = PathOfStates(
        path.theta_nodes,
        tuple(s.with_fields(W=np.full(s.grid.n, np.pi)) for s in states))
    with pytest.raises(AnalysisError):
        path_length(all_touched)


def test_distance_self_is_zero_and_symmetric():
    s0, s1 = endpoint_states()
    assert distance_upper(s0, s0) == 0.0
    dab = distance_upper(s0, s1)
    dba = distance_upper(s1, s0)
    assert dab > 0.0
    assert dab == pytest.approx(dba, rel=1e-12)


def lipschitz_path():
    """The 9-node path between the lipschitz config's datum pair at t = 0."""
    return straight_line_path(*lipschitz_ends()[1], 9)


def warm_chain(monkeypatch, path):
    """path_length with a shift search, with each norm call's seed and
    result."""
    calls = []
    real = metric.tangent_norm_info

    def spy(state, tangent, *args, seed=None, **kw):
        info = real(state, tangent, *args, seed=seed, **kw)
        calls.append((state, seed, info))
        return info

    monkeypatch.setattr(metric, "tangent_norm_info", spy)
    length = path_length(path, iters=200)
    monkeypatch.undo()
    return length, calls


def test_path_length_warm_starts_each_node(monkeypatch):
    # The nodes of one path share a tangent and nearly a state: seeded
    # with the previous node's shift, each norm is its cold value (or
    # below it) in a fraction of the passes, and never above eta = 0.
    path = lipschitz_path()
    length, calls = warm_chain(monkeypatch, path)
    assert all(st is node for (st, _, _), node in zip(calls, path.states))
    assert len(calls) == len(path.states)
    assert calls[0][1] is None
    cold_passes = warm_passes = 0
    for j, (state, _, warm) in enumerate(calls):
        cold = tangent_norm_info(state, metric._path_tangent(path, j),
                                 iters=200)
        assert warm.value <= cold.value * (1.0 + 1e-6)
        assert warm.value <= warm.eta_zero_value
        cold_passes += cold.iterations
        warm_passes += warm.iterations
    assert 3 * warm_passes <= cold_passes
    again = path_length(path, iters=200)
    assert np.float64(again).tobytes() == np.float64(length).tobytes()


def test_warm_chain_resumes_after_an_excluded_node(monkeypatch):
    # The middle node touches an angle level and is skipped: the node
    # after it is seeded from the last kept node, not started cold.
    path = lipschitz_path()
    states = list(path.states)
    W = states[4].W.copy()
    W[256] = np.pi
    states[4] = states[4].with_fields(W=W)
    touched = metric.PathOfStates(path.theta_nodes, tuple(states))
    _, calls = warm_chain(monkeypatch, touched)
    kept = states[:4] + states[5:]
    assert len(calls) == len(kept)
    assert all(st is node for (st, _, _), node in zip(calls, kept))
    assert calls[0][1] is None
    for (_, _, before), (_, seed, _) in zip(calls, calls[1:]):
        assert seed is before.best_coeffs


def test_seed_is_checked_and_copied():
    # A seed is eta_nodes finite coefficients.  One far from the optimum
    # is a candidate that the search improves on, and the result holds
    # its own coefficients, never the caller's array.
    path = lipschitz_path()
    state, tan = path.states[0], metric._path_tangent(path, 0)
    for bad in (np.zeros(9), np.zeros((17, 1)), np.full(17, np.inf),
                np.r_[np.zeros(16), np.nan]):
        with pytest.raises(ContractError, match="seed"):
            tangent_norm_info(state, tan, iters=200, seed=bad)
    seed = np.full(17, 1e3)
    wild = tangent_norm_info(state, tan, iters=200, seed=seed)
    assert wild.value <= wild.eta_zero_value
    assert not np.shares_memory(wild.best_coeffs, seed)


def relabeling_tangent(state, scale):
    """The tangent of the relabeling eta = scale exp(-xi^2 / 8): every
    row moves by -eta times its xi-derivative, and q by -(eta q)_xi."""
    xi = state.grid.nodes
    eta = scale * np.exp(-xi ** 2 / 8.0)
    _, u_xi, v_xi, w_xi, z_xi, q_xi = metric._state_derivatives(state)
    return -np.stack((eta * u_xi, eta * v_xi, eta * w_xi, eta * z_xi,
                      -0.25 * xi * eta * state.q + eta * q_xi))


def test_converged_norm_is_positively_homogeneous():
    # The shifts are unbounded, so |lambda v| = lambda |v| holds for the
    # converged norm, to far below the stop rule.  Powers of two scale
    # exactly in binary, so 2.5, 10, 37 and 100 test the stop rule.
    _, (bump, _) = lipschitz_ends()
    cases = [(bump, relabeling_tangent(bump, 0.1), m,
              (1.0, 4.0, 16.0, 64.0, 2.5, 10.0, 37.0)) for m in (17, 65)]
    cases += [(*random_draw(256, seed), 17, (2.5, 10.0, 100.0))
              for seed in range(4)]
    for state, tan, m, lams in cases:
        value = tangent_norm_info(state, tan, eta_nodes=m, iters=200).value
        # Off eta = 0, where homogeneity would hold anyway.
        assert value < tangent_norm_info(state, tan).value
        for lam in lams:
            scaled = tangent_norm_info(state, lam * tan, eta_nodes=m,
                                       iters=200).value
            assert abs(scaled / lam - value) <= 1e-9 * value, (m, lam)


requires_scipy = pytest.mark.skipif(find_spec("scipy") is None,
                                    reason="the LP oracle needs scipy")


def lp_optimum(state, tangent, eta_nodes, alpha=0.5):
    """min_c sum w |P0 + K c| over all c, as the linear program in (c, t):
    minimize w.t subject to -t <= P0 + K c <= t."""
    from scipy import optimize, sparse
    P0 = metric._phi_zero(state, tangent).ravel()
    op = metric._shift_operator(state, eta_nodes)
    w = np.tile(metric._quad_weights(state.grid, state.y, alpha), 6)
    rows = np.broadcast_to(np.arange(P0.size).reshape(6, -1), op.band.shape)
    cols = np.broadcast_to(op.index[:, None, :], op.band.shape)
    K = sparse.csr_array((op.band.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(P0.size, eta_nodes))
    eye = sparse.eye_array(P0.size)
    res = optimize.linprog(
        np.concatenate((np.zeros(eta_nodes), w)),
        A_ub=sparse.vstack((sparse.hstack((K, -eye)),
                            sparse.hstack((-K, -eye)))),
        b_ub=np.concatenate((-P0, P0)), bounds=(None, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun


def assert_certified(state, tangent, eta_nodes, caps=(200,), above=1e-4):
    # At each pass cap: at or above the exact optimum (to the LP's
    # tolerance), and above it by no more than the IRLS stop rule
    # leaves.  The value is that of the reported shift, found within the
    # cap, and the eta = 0 value is the phis' bit for bit.
    lp = lp_optimum(state, tangent, eta_nodes)
    value0 = np.float64(eta_zero_value(state, tangent)).tobytes()
    for iters in caps:
        info = tangent_norm_info(state, tangent, eta_nodes=eta_nodes,
                                 iters=iters)
        assert lp * (1.0 - 1e-9) <= info.value <= lp * (1.0 + above)
        assert 1 <= info.iterations <= iters
        assert info.value == metric.shift_value(state, tangent,
                                                info.best_coeffs)
        assert np.float64(info.eta_zero_value).tobytes() == value0


def certify_draws(n, eta_nodes, caps=(200,), above=1e-4):
    """assert_certified on three seeded random draws on [-8, 8]."""
    for seed in range(3):
        assert_certified(*random_draw(n, [n, eta_nodes, seed]), eta_nodes,
                         caps, above)


@requires_scipy
@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0])
def test_path_norms_certified_by_the_lp(t):
    cfg, ends = lipschitz_ends()
    if t:
        steps = round(abs(t) / cfg.dt)
        ends = [evolve(s, t, np.copysign(cfg.dt, t), steps).states[-1]
                for s in ends]
    path = straight_line_path(*ends, 9)
    for j in (0, 4, 8):
        assert_certified(path.states[j], metric._path_tangent(path, j), 17)


@requires_scipy
@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("eta_nodes", [9, 17])
def test_random_norms_certified_by_the_lp(n, eta_nodes):
    # At a cap of 60 passes three of the twelve draws stop at the cap,
    # up to 1.02e-5 above the LP.
    certify_draws(n, eta_nodes, caps=(60, 200))


@requires_scipy
@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("eta_nodes", [2, 3])
def test_descent_reaches_the_exact_optimum(n, eta_nodes):
    # On these small problems the passes end within 1.2e-7 of the LP,
    # so the bound above it is the tighter 1e-6.
    certify_draws(n, eta_nodes, above=1e-6)


def test_lipschitz_experiment_rows(monkeypatch):
    # Both time directions start from the same states, so the t = 0
    # distance is computed once, and its ratio is 1; the rows are those
    # of a loop that evaluates every record of both directions, ordered
    # from -T to T.  The path states are checked against the box the
    # endpoints were evolved in, not against the default box.
    g = make_grid(-12.0, 12.0, 128)
    base = builtin_datum("gaussian_bump", {"a": 0.5, "width": 1.5})
    pert = builtin_datum("gaussian_bump", {"a": 0.502, "width": 1.5})
    d0, d1 = pair_datum(base, base), pair_datum(pert, base)
    calls, seen = [], []
    real_distance, real_path = metric.distance_upper, metric.straight_line_path

    def counting(*args, **kw):
        calls.append(args)
        return real_distance(*args, **kw)

    def spy(end0, end1, m_theta, bounds=OmegaBounds()):
        seen.append(bounds)
        return real_path(end0, end1, m_theta, bounds)

    monkeypatch.setattr(metric, "distance_upper", counting)
    monkeypatch.setattr(metric, "straight_line_path", spy)
    rows = lipschitz_experiment(d0, d1, g, 0.2, 0.01, record_every=10,
                                bounds=BOUNDS)
    monkeypatch.undo()
    assert seen and all(b is BOUNDS for b in seen)

    s0 = transform_with_map(d0, g)
    s1 = transform_with_map(d1, g)
    every = {}
    for sgn in (-1.0, 1.0):
        tr0 = evolve(s0, sgn * 0.2, sgn * 0.01, 10, BOUNDS)
        tr1 = evolve(s1, sgn * 0.2, sgn * 0.01, 10, BOUNDS)
        assert len(tr0.times) == 3
        for i, t in enumerate(tr0.times):
            every[t] = distance_upper(tr0.states[i], tr1.states[i])
    assert len(calls) == len(every) == 2 * (3 - 1) + 1
    assert [(r.t, r.d_t_upper) for r in rows] == sorted(every.items())
    assert [r.ratio for r in rows] == [d / every[0.0] for _, d in
                                       sorted(every.items())]
    assert (rows[0].t, rows[-1].t) == pytest.approx((-0.2, 0.2))
    assert [r.ratio for r in rows if r.t == 0.0] == [1.0]
    for r in rows:
        assert np.isfinite(r.d_t_upper) and r.d_t_upper >= 0.0
        assert np.isfinite(r.ratio) and r.ratio > 0.0
        assert r.eta_iterations == 0
