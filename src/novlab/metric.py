"""Finsler tangent norm, path lengths, and distance upper bounds.

The norm of a tangent vector at a state is an infimum over a shift
field eta of a weighted L1 sum of six phis, with no bound on the size
of eta: relabeling shifts of any size are admitted, so the norm is
positively homogeneous, |lambda v| = lambda |v| for lambda > 0.  This
follows Bressan & Chen, "Lipschitz metrics for a class of nonlinear
wave equations", Arch. Ration. Mech. Anal. 226 (2017).  With eta an
m-node piecewise-linear shift with coefficients c, the (6, n) phi
stack is affine in c: P(c) = P0 + K c, where P0 is the stack at
eta = 0 and column j of K is the change that the j-th hat function of
the shift causes.  Each node lies in one coarse cell and feels only
that cell's two hats, so K is stored as two bands.  The objective
sum w |P0 + K c| is minimized over all c by iteratively reweighted
least squares (IRLS): each pass solves the tridiagonal normal
equations of sum w / max(|P|, floor) |P0 + K c|^2, with P from the
previous pass.  The first pass is plain weighted least squares, and
the passes stop when one changes the value by at most _IRLS_RTOL of
it.  Exact sweeps over the coordinates follow, repeated while a sweep
lowers the value by more than _IRLS_RTOL of it.  eta = 0 is always
evaluated first and the best iterate is kept, so every reported value
is a certified upper bound and the search can only improve it.  The
pass cap iters is the one search knob: it also caps the sweeps, and
iters = 0, the default, returns the eta = 0 value.  Distances are
upper bounds obtained from the straight-line path between states.

The theta nodes of one path share a tangent and nearly a state, so
path_length warm-starts each kept node's search from the previous kept
node's best coefficients: the seed is evaluated as a candidate and its
residual at the new node gives the first IRLS weights.  The first kept
node starts cold.  The seed lives inside one path_length call only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import (DEFAULT_ALPHA, DEFAULT_DESCENT_ITERS, DEFAULT_ETA_NODES,
                     DEFAULT_M_THETA)
from .errors import AnalysisError, ContractError, NumericalAbort
from .evolution import OmegaBounds, check_omega, evolve
from .grid import Grid, fd_derivative, prefix_integral
from .initial import EulerDatum, TransformedState, transform_with_map
from .sources import TOL_PI, level_distance, slope_factors, xi_derivatives

__all__ = [
    "PathOfStates",
    "NormInfo",
    "RatioRow",
    "z_shift",
    "shift_value",
    "tangent_norm_info",
    "straight_line_path",
    "path_length",
    "distance_upper",
    "lipschitz_experiment",
]

# IRLS stops once a pass changes the value by at most this fraction.
_IRLS_RTOL = 1e-7
# Residuals below this fraction of max |P0| are weighted as if this large.
_IRLS_FLOOR = 1e-9


@dataclass(frozen=True)
class PathOfStates:
    theta_nodes: np.ndarray
    states: tuple[TransformedState, ...]


@dataclass(frozen=True)
class NormInfo:
    """A tangent norm: value is the smallest phi sum found, at best_coeffs.

    eta_zero_value is the sum at eta = 0.  iterations counts the IRLS
    passes made; evaluating a seed is not a pass.  iters = 0 makes none
    and leaves best_coeffs None.
    """
    value: float
    iterations: int
    eta_zero_value: float
    best_coeffs: np.ndarray | None


@dataclass(frozen=True)
class RatioRow:
    t: float
    d_t_upper: float
    ratio: float
    # The IRLS pass cap of every norm, not the passes a norm used.
    eta_iterations: int


def _state_derivatives(state: TransformedState, slopes=None):
    y_xi, u_xi, v_xi = xi_derivatives(state, slopes)
    w_xi, z_xi, q_xi = fd_derivative(state.data[2:5], state.grid, 1,
                                     state.kinks)
    return y_xi, u_xi, v_xi, w_xi, z_xi, q_xi


def z_shift(state: TransformedState, tangent: np.ndarray,
            slopes=None) -> np.ndarray:
    """First variation of the characteristic map under the tangent: the
    prefix integral of (c_W c_Z) (Q - q (A T_W + B T_Z)), the variation
    of y_xi.  slopes is slope_factors(state), evaluated here if not given.
    """
    (TW, TZ), (cw, cz) = slopes or slope_factors(state)
    _, _, A, B, Q = tangent
    integrand = (cw * cz) * (Q - state.q * (A * TW + B * TZ))
    return prefix_integral(integrand, state.grid)


# Column scale of phi rows 0-4: phi4 and phi5 carry a factor 1/2.
_ROW_SCALE = np.array([1.0, 1.0, 1.0, 0.5, 0.5])[:, None]


def _phi_zero(state: TransformedState, tangent: np.ndarray,
              slopes=None) -> np.ndarray:
    """P0, the (6, n) phi stack at eta = 0.

    Rows 0-4 are (z, R, S, A, B) * _ROW_SCALE * q and row 5 is Q: the
    eta terms drop out, so no xi-derivatives are needed.
    """
    P0 = np.empty((6, state.grid.n))
    P0[:5] = (np.concatenate((z_shift(state, tangent, slopes)[None],
                              tangent[:4]))
              * _ROW_SCALE * state.q)
    P0[5] = tangent[4]
    return P0


@lru_cache(maxsize=8)
def _hat_space(grid: Grid, eta_nodes: int):
    """The coarse cells of the eta_nodes-node hat space on grid, built
    once per pair as read-only arrays: index, the two coefficients of
    the cell that holds each node (the last cell is closed); hat, their
    two hats there; the coarse spacing; and for each parity of the
    coefficients, what _coordinate_sweep moves: which hat of each node
    has that parity, its coefficient, the parity's coefficients and the
    first node of each.
    """
    if eta_nodes < 2:
        raise ContractError(f"shift field needs eta_nodes >= 2, got {eta_nodes}")
    nodes = grid.nodes
    coarse = np.linspace(grid.xi_min, grid.xi_max, eta_nodes)
    spacing = coarse[1] - coarse[0]
    cells = np.clip(np.searchsorted(coarse, nodes, side="right") - 1,
                    0, eta_nodes - 2)
    counts = np.bincount(cells, minlength=eta_nodes - 1)
    if not counts.all():
        raise ContractError(
            f"coarse cell {int(np.argmin(counts))} of the {eta_nodes}-node "
            f"shift holds no grid node; need eta_nodes <= grid.n = {grid.n}")
    index = np.stack((cells, cells + 1))
    hat = np.maximum(0.0, 1.0 - np.abs(nodes - coarse[index]) / spacing)
    parities = []
    for parity in (0, 1):
        upper = index[0] % 2 != parity
        coef = np.where(upper, index[1], index[0])
        # Every cell holds a node, so every coefficient reaches one, and
        # coef is nondecreasing along the nodes.
        ids = np.arange(parity, eta_nodes, 2)
        parities.append((upper, coef, ids, np.searchsorted(coef, ids)))
    for table in (index, hat, *(a for group in parities for a in group)):
        table.flags.writeable = False
    return index, hat, spacing, tuple(parities)


@dataclass(frozen=True)
class _ShiftOperator:
    """K, the map from shift coefficients c to P(c) - P0.

    The shift is sum_j c_j hat_j over m equispaced hat functions that
    span the grid, with no bound on the size of the c_j.  Only the two
    hats of the coarse cell holding node k reach it, so K is banded:
    index[:, k] are those two coefficients and band[:, :, k] their two
    (6,) columns, and
    (K c)[:, k] = band[0, :, k] c[index[0, k]] + band[1, :, k] c[index[1, k]].
    A column is (y_xi, u_xi, v_xi, w_xi, z_xi) * _ROW_SCALE * q * hat
    over q_xi * hat + q * hat', for the cell's lower and upper hat.
    """
    index: np.ndarray
    band: np.ndarray
    # The band products band[0]**2, band[1]**2 and band[0] * band[1]
    # that the normal matrix sums.
    products: np.ndarray
    # _hat_space's per-parity tables, which _coordinate_sweep reads.
    parities: tuple

    @property
    def size(self) -> int:
        return int(self.index[1, -1]) + 1

    def apply(self, c: np.ndarray) -> np.ndarray:
        """K c as a (6, n) stack."""
        return np.einsum("srk,sk->rk", self.band, c[self.index])

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        """K^T u for a (6, n) stack u."""
        return np.bincount(self.index.ravel(),
                           np.einsum("srk,rk->sk", self.band, u).ravel(),
                           self.size)

    def normal_matrix(self, omega: np.ndarray) -> np.ndarray:
        """K^T diag(omega) K, tridiagonal, for a (6, n) weight stack."""
        m = self.size
        lower, upper, cross = np.einsum("srk,rk->sk", self.products, omega)
        M = np.diag(np.bincount(self.index[0], lower, m)
                    + np.bincount(self.index[1], upper, m))
        M.flat[1::m + 1] = M.flat[m::m + 1] = np.bincount(self.index[0],
                                                          cross, m - 1)
        return M


def _shift_operator(state: TransformedState, eta_nodes: int,
                    slopes=None) -> _ShiftOperator:
    index, hat, spacing, parities = _hat_space(state.grid, eta_nodes)
    *D, q_xi = _state_derivatives(state, slopes)
    band = np.empty((2, 6, state.grid.n))
    band[:, :5] = (np.stack(D) * _ROW_SCALE * state.q) * hat[:, None]
    band[:, 5] = q_xi * hat + np.array([[-1.0], [1.0]]) * state.q / spacing
    products = np.stack((band[0] * band[0], band[1] * band[1],
                         band[0] * band[1]))
    return _ShiftOperator(index, band, products, parities)


def _quad_weights(grid: Grid, y, alpha: float) -> np.ndarray:
    w = np.full(grid.n, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    return w * np.exp(-alpha * np.abs(np.asarray(y, dtype=float)))


def _objective(weights, phis) -> float:
    # One dot per row, summed in row order.  Not abs(phis) @ weights: a
    # matrix-vector product rounds differently from six dots.
    return float(sum(weights @ row for row in np.abs(phis)))


def _coordinate_sweep(op: _ShiftOperator, weights: np.ndarray,
                      P0: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Minimize the value exactly along each coefficient of c in turn.

    Along coefficient j the value is sum w |P + t K_j|, least at the
    weighted median of the kinks -P / K_j, weighted by w |K_j|.  No two
    even coefficients share a node, nor two odd ones, so each parity
    moves at once.  Laid node-major, a parity's entries run in
    coefficient order, so one sort of each run by kink orders them.
    """
    m = op.size
    c = c.copy()
    P = P0 + op.apply(c)
    alive = (weights > 0.0)[:, None]
    for upper, coef, ids, firsts in op.parities:
        col = np.where(upper, op.band[1], op.band[0])
        scale = np.abs(col)
        scale *= weights
        # Each coefficient's total weight, summed row by row, the order
        # that fixes its bits; a dead entry adds an exact zero.
        total = np.bincount(np.broadcast_to(coef, P.shape).ravel(),
                            scale.ravel(), m)
        # The live entries node-major, and where each coefficient's run
        # of them ends.
        live = (col.T != 0.0) & alive
        kink = -P.T[live] / col.T[live]
        weight = scale.T[live]
        counts = np.add.reduceat(np.add.reduce(live, axis=1, dtype=np.intp),
                                 firsts)
        ends = np.cumsum(counts)
        starts = ends - counts
        order = np.empty(kink.size, dtype=np.intp)
        for a, b in zip(starts.tolist(), ends.tolist()):
            order[a:b] = a + np.argsort(kink[a:b])
        moves = total[ids] > 0.0
        js = ids[moves]
        # First sorted kink whose cumulative weight reaches half its
        # coefficient's total, kept inside that coefficient's run.
        pos = np.searchsorted(np.cumsum(weight[order]),
                              np.cumsum(total)[js] - 0.5 * total[js])
        pos = np.clip(pos, starts[moves], ends[moves] - 1)
        step = np.zeros(m)
        step[js] = (c[js] + kink[order[pos]]) - c[js]
        c += step
        P += col * step[coef]
    return c


def _checked_norm_inputs(state: TransformedState, tangent: np.ndarray,
                         alpha: float, slopes):
    """The quadrature weights and P0 of a tangent, after the shape checks;
    slopes is slope_factors(state)."""
    if np.shape(tangent) != (5, state.grid.n):
        raise ContractError(f"tangent has shape {np.shape(tangent)}, "
                            f"expected (5, {state.grid.n})")
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must lie strictly in (0,1), got {alpha}")
    return (_quad_weights(state.grid, state.y, alpha),
            _phi_zero(state, tangent, slopes))


def shift_value(state: TransformedState, tangent: np.ndarray,
                coeffs: np.ndarray, alpha: float = DEFAULT_ALPHA) -> float:
    """The weighted phi sum of a tangent under one shift.

    The shift is piecewise linear with value coeffs[j] at the j-th of
    coeffs.size equispaced nodes spanning the grid, of any size.
    """
    slopes = slope_factors(state)
    weights, P0 = _checked_norm_inputs(state, tangent, alpha, slopes)
    op = _shift_operator(state, np.size(coeffs), slopes)
    return _objective(weights, P0 + op.apply(np.asarray(coeffs, dtype=float)))


def tangent_norm_info(state: TransformedState, tangent: np.ndarray,
                      alpha: float = DEFAULT_ALPHA,
                      eta_nodes: int = DEFAULT_ETA_NODES, iters: int = 0,
                      seed: np.ndarray | None = None) -> NormInfo:
    """Finsler norm of a tangent at state.

    The norm is the infimum of the weighted phi sum over the shifts of
    the eta_nodes-coefficient hat space, with no bound on their size,
    so it is positively homogeneous in the tangent.  tangent is a
    (5, grid.n) array with rows R, S, A, B, Q: the variations of the
    state rows U, V, W, Z, q, in that order.  iters caps the IRLS
    passes and the closing coordinate sweeps, and iterations in the
    result counts the passes made; iters < 1 returns the eta = 0 value.
    seed, eta_nodes finite coefficients, warm-starts the passes; None
    starts them cold.  best_coeffs never aliases seed.
    """
    # z_shift and the shift operator share one evaluation of the slopes.
    slopes = slope_factors(state)
    weights, P0 = _checked_norm_inputs(state, tangent, alpha, slopes)
    value0 = _objective(weights, P0)
    if iters < 1:
        return NormInfo(value=value0, iterations=0, eta_zero_value=value0,
                        best_coeffs=None)
    op = _shift_operator(state, eta_nodes, slopes)
    if seed is not None:
        # A copy, so that best_coeffs never aliases the caller's array.
        seed = np.array(seed, dtype=float)
        if seed.shape != (eta_nodes,) or not np.isfinite(seed).all():
            raise ContractError(
                f"seed must be {eta_nodes} finite coefficients, got shape "
                f"{seed.shape} with {np.count_nonzero(~np.isfinite(seed))} "
                f"non-finite")
    best_val, best_c, used = value0, np.zeros(eta_nodes), 0
    # A zero value is already the minimum, and a non-finite one cannot
    # be improved on.
    if not 0.0 < value0 < np.inf:
        return NormInfo(value=best_val, iterations=used,
                        eta_zero_value=value0, best_coeffs=best_c)
    floor = _IRLS_FLOOR * float(np.max(np.abs(P0)))
    if seed is None:
        # Cold: the first pass is plain weighted least squares.
        omega = np.broadcast_to(weights, P0.shape)
        prev = np.inf
    else:
        # Warm: the seed is a candidate and its residual the first
        # weights.
        P = P0 + op.apply(seed)
        prev = _objective(weights, P)
        if prev < best_val:
            best_val, best_c = prev, seed
        omega = weights / np.maximum(np.abs(P), floor)
    for k in range(1, iters + 1):
        try:
            c = np.linalg.solve(op.normal_matrix(omega),
                                -op.adjoint(omega * P0))
        except np.linalg.LinAlgError:
            break
        P = P0 + op.apply(c)
        val = _objective(weights, P)
        used = k
        if val < best_val:
            best_val, best_c = val, c
        if not abs(prev - val) > _IRLS_RTOL * val:
            break
        prev = val
        omega = weights / np.maximum(np.abs(P), floor)
    for _ in range(iters):
        c = _coordinate_sweep(op, weights, P0, best_c)
        val = _objective(weights, P0 + op.apply(c))
        lowered = best_val - val
        if val < best_val:
            best_val, best_c = val, c
        if not lowered > _IRLS_RTOL * val:
            break
    return NormInfo(value=best_val, iterations=used,
                    eta_zero_value=value0, best_coeffs=best_c)


def straight_line_path(end0: TransformedState, end1: TransformedState,
                       m_theta: int,
                       bounds: OmegaBounds = OmegaBounds()) -> PathOfStates:
    if end0.grid != end1.grid:
        raise ContractError("path endpoints must share a grid")
    if m_theta < 3:
        raise ContractError(f"need m_theta >= 3 nodes, got {m_theta}")
    thetas = np.linspace(0.0, 1.0, m_theta)
    step = end1.data - end0.data
    states = []
    for j, th in enumerate(thetas):
        if j == 0:
            st = end0
        elif j == m_theta - 1:
            st = end1
        else:
            # Anchored form: identical endpoints collapse bitwise, so the
            # self-distance is exactly zero instead of one-ulp noise.
            st = TransformedState(end0.t + th * (end1.t - end0.t), end0.grid,
                                  end0.data + th * step)
        try:
            check_omega(st, bounds)
        except NumericalAbort as err:
            raise AnalysisError(
                f"straight-line path leaves the validity region at "
                f"theta={th:.4f}: {err}") from err
        states.append(st)
    return PathOfStates(theta_nodes=thetas, states=tuple(states))


def _path_tangent(path: PathOfStates, j: int) -> np.ndarray:
    states = path.states
    m = len(states)
    if j == 0:
        a, b, h = 0, 1, path.theta_nodes[1] - path.theta_nodes[0]
    elif j == m - 1:
        a, b, h = m - 2, m - 1, path.theta_nodes[-1] - path.theta_nodes[-2]
    else:
        a, b, h = j - 1, j + 1, path.theta_nodes[j + 1] - path.theta_nodes[j - 1]
    return (states[b].data[:5] - states[a].data[:5]) / h


def path_length(path: PathOfStates, alpha: float = DEFAULT_ALPHA,
                tol_pi: float = TOL_PI, **norm_kw) -> float:
    """Trapezoid theta-integral of the tangent norm along the path.

    The norm at each node is tangent_norm_info's infimum over the
    hat-space shifts, with no bound on their size, and norm_kw goes to
    it.  Nodes whose state touches an angle level within tol_pi are excluded
    and the remaining quadrature weights are renormalized, mirroring
    the removal of finitely many exceptional path parameters.
    """
    m = path.theta_nodes.size
    if m < 3:
        raise ContractError("path_length needs at least 3 theta nodes")
    gaps = np.diff(path.theta_nodes)
    weights = np.zeros(m)
    weights[0] = 0.5 * gaps[0]
    weights[-1] = 0.5 * gaps[-1]
    weights[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
    keep = ~np.array([np.min(level_distance(st.data[2:4])) < tol_pi
                      for st in path.states])
    if not keep.any():
        raise AnalysisError("every theta node touches an angle level")
    total_kept = float(np.sum(weights[keep]))
    span = float(np.sum(weights))
    length = 0.0
    seed = None
    for j in range(m):
        if not keep[j]:
            continue
        info = tangent_norm_info(path.states[j], _path_tangent(path, j),
                                 alpha, seed=seed, **norm_kw)
        length += weights[j] * info.value
        seed = info.best_coeffs
    return length * (span / total_kept)


def distance_upper(state0: TransformedState, state1: TransformedState,
                   alpha: float = DEFAULT_ALPHA,
                   m_theta: int = DEFAULT_M_THETA,
                   bounds: OmegaBounds = OmegaBounds(), **norm_kw) -> float:
    """Length of the straight-line path, whose states must lie in bounds."""
    path = straight_line_path(state0, state1, m_theta, bounds)
    return path_length(path, alpha, **norm_kw)


def lipschitz_experiment(datum0: EulerDatum, datum1: EulerDatum, grid: Grid,
                         T: float, dt: float, alpha: float = DEFAULT_ALPHA,
                         m_theta: int = DEFAULT_M_THETA,
                         record_every: int = 50,
                         bounds: OmegaBounds = OmegaBounds(), iters: int = 0,
                         **norm_kw) -> list[RatioRow]:
    """Distance ratios d(t)/d(0) along both time directions; every norm
    caps its IRLS passes at iters."""
    state0 = transform_with_map(datum0, grid)
    state1 = transform_with_map(datum1, grid)
    runs = []
    for sgn in (-1.0, 1.0):
        tr0 = evolve(state0, sgn * T, sgn * dt, record_every, bounds)
        tr1 = evolve(state1, sgn * T, sgn * dt, record_every, bounds)
        runs.append((tr0, tr1))
    rows = {}
    for tr0, tr1 in runs:
        for i, t in enumerate(tr0.times):
            if t in rows:
                continue  # t = 0: both directions start from the same states
            rows[t] = distance_upper(tr0.states[i], tr1.states[i], alpha,
                                     m_theta, bounds, iters=iters,
                                     **norm_kw)
    d0 = rows.get(0.0)
    if d0 is None:
        raise AnalysisError("no t=0 record in the Lipschitz experiment")
    if d0 == 0.0:
        raise AnalysisError("the two data coincide at t = 0, so d(t)/d(0) "
                            "is undefined")
    table = []
    for t in sorted(rows):
        d = rows[t]
        table.append(RatioRow(t=t, d_t_upper=d, ratio=d / d0,
                              eta_iterations=iters))
    return table
