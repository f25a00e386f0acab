"""Finsler tangent norm, path lengths, and distance upper bounds.

The norm of a tangent vector at a state is an infimum over a shift
field eta of a weighted L1 sum of six phis.  With eta an m-node
piecewise-linear shift with coefficients c, the (6, n) phi stack is
affine in c: P(c) = P0 + K c, where P0 is the stack at eta = 0 and
column j of the (6n, m) operator K is the change that the j-th hat
function of the shift causes.  The objective sum w |P0 + K c| is
convex piecewise linear; it is explored over the box |c| <= box by
projected subgradient descent with step a/k and subgradient
(w sign P) K.  eta = 0 is always evaluated first, so every reported
value is a certified upper bound and descent can only improve it.
Distances are upper bounds obtained from the straight-line path
between states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ContractError, NumericalAbort
from .evolution import OmegaBounds, check_omega, evolve
from .grid import Grid, fd_derivative, prefix_integral
from .initial import EulerDatum, TransformedState, transform_with_map
from .sources import half_angle_factors, xi_derivatives

__all__ = [
    "PathOfStates",
    "NormInfo",
    "RatioRow",
    "z_shift",
    "tangent_norm_info",
    "straight_line_path",
    "path_length",
    "distance_upper",
    "lipschitz_experiment",
]

DEFAULT_ALPHA = 0.5
DEFAULT_ETA_NODES = 17
DEFAULT_DESCENT_ITERS = 200


@dataclass(frozen=True)
class PathOfStates:
    theta_nodes: np.ndarray
    states: tuple[TransformedState, ...]


@dataclass(frozen=True)
class NormInfo:
    value: float
    iterations: int
    eta_zero_value: float
    best_coeffs: np.ndarray | None


@dataclass(frozen=True)
class RatioRow:
    t: float
    d_t_upper: float
    ratio: float
    search_mode: str
    eta_iterations: int


def _state_derivatives(state: TransformedState):
    y_xi, u_xi, v_xi = xi_derivatives(state)
    w_xi = fd_derivative(state.W, state.grid, 1)
    z_xi = fd_derivative(state.Z, state.grid, 1)
    q_xi = fd_derivative(state.q, state.grid, 1)
    return y_xi, u_xi, v_xi, w_xi, z_xi, q_xi


def z_shift(state: TransformedState, tangent: np.ndarray) -> np.ndarray:
    """First variation of the characteristic map under the tangent."""
    (sinW, sinZ), (cw, cz), _ = half_angle_factors(state)
    _, _, A, B, Q = tangent
    integrand = (Q * (cw * cz)
                 - 0.5 * state.q * A * sinW * cz
                 - 0.5 * state.q * B * cw * sinZ)
    return prefix_integral(integrand, state.grid)


# Column scale of phi rows 0-4: phi4 and phi5 carry a factor 1/2.
_ROW_SCALE = np.array([1.0, 1.0, 1.0, 0.5, 0.5])[:, None]


def _phi_zero(state: TransformedState, tangent: np.ndarray) -> np.ndarray:
    """P0, the (6, n) phi stack at eta = 0.

    Rows 0-4 are (z, R, S, A, B) * _ROW_SCALE * q and row 5 is Q: the
    eta terms drop out, so no xi-derivatives are needed.
    """
    P0 = np.empty((6, state.grid.n))
    P0[:5] = (np.concatenate((z_shift(state, tangent)[None], tangent[:4]))
              * _ROW_SCALE * state.q)
    P0[5] = tangent[4]
    return P0


def _shift_operator(state: TransformedState, eta_nodes: int):
    """K, the (6n, m) map from shift coefficients to P(c) - P0, and the box.

    The shift is sum_j c_j hat_j over m equispaced hat functions that
    span the grid.  Column j of K holds, in the rows of the flattened
    phi stack, (y_xi, u_xi, v_xi, w_xi, z_xi) * _ROW_SCALE * q * hat_j
    and q_xi * hat_j + q * hat_j'.
    """
    if eta_nodes < 2:
        raise ContractError(f"shift field needs eta_nodes >= 2, got {eta_nodes}")
    grid = state.grid
    nodes = grid.nodes
    coarse = np.linspace(grid.xi_min, grid.xi_max, eta_nodes)
    spacing = coarse[1] - coarse[0]
    hat = np.maximum(0.0, 1.0 - np.abs(nodes[:, None] - coarse) / spacing)
    # hat' on the coarse cell holding each node; the last cell is closed.
    cells = np.clip(np.searchsorted(coarse, nodes, side="right") - 1,
                    0, eta_nodes - 2)
    unit = np.eye(eta_nodes)
    hat_p = (unit[cells + 1] - unit[cells]) / spacing
    *D, q_xi = _state_derivatives(state)
    K = np.empty((6, grid.n, eta_nodes))
    K[:5] = (np.stack(D) * _ROW_SCALE * state.q)[:, :, None] * hat
    K[5] = q_xi[:, None] * hat + state.q[:, None] * hat_p
    return K.reshape(6 * grid.n, eta_nodes), 0.5 * spacing


def _quad_weights(grid: Grid, y, alpha: float) -> np.ndarray:
    w = np.full(grid.n, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    return w * np.exp(-alpha * np.abs(np.asarray(y, dtype=float)))


def _objective(weights, phis) -> float:
    # One dot per row, summed in row order.  Not abs(phis) @ weights: a
    # matrix-vector product rounds differently from six dots.
    return float(sum(weights @ row for row in np.abs(phis)))


def tangent_norm_info(state: TransformedState, tangent: np.ndarray,
                      alpha: float = DEFAULT_ALPHA, search: str = "eta_zero",
                      eta_nodes: int = DEFAULT_ETA_NODES,
                      iters: int = DEFAULT_DESCENT_ITERS) -> NormInfo:
    """Finsler norm of a tangent at state.

    tangent is a (5, grid.n) array with rows R, S, A, B, Q: the
    variations of the state rows U, V, W, Z, q, in that order.
    """
    if np.shape(tangent) != (5, state.grid.n):
        raise ContractError(f"tangent has shape {np.shape(tangent)}, "
                            f"expected (5, {state.grid.n})")
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must lie strictly in (0,1), got {alpha}")
    if search not in ("eta_zero", "coarse_descent"):
        raise ContractError(f"unknown search mode {search!r}")
    weights = _quad_weights(state.grid, state.y, alpha)
    P0 = _phi_zero(state, tangent)
    value0 = _objective(weights, P0)
    if search == "eta_zero":
        return NormInfo(value=value0, iterations=0, eta_zero_value=value0,
                        best_coeffs=None)

    K, box = _shift_operator(state, eta_nodes)
    p0 = P0.ravel()
    w6 = np.tile(weights, 6)
    best_val = value0
    c = best_c = np.zeros(eta_nodes)
    g = (w6 * np.sign(p0)) @ K
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return NormInfo(value=best_val, iterations=0, eta_zero_value=value0,
                        best_coeffs=best_c)
    step_scale = 0.2 * box / gnorm
    used = 0
    for k in range(1, iters + 1):
        c = np.clip(c - (step_scale / k) * g, -box, box)
        P = p0 + K @ c
        val = _objective(weights, P.reshape(P0.shape))
        used = k
        if val < best_val:
            best_val = val
            best_c = c
        g = (w6 * np.sign(P)) @ K
        if float(np.linalg.norm(g)) == 0.0:
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


def _touches_pi(state: TransformedState, tol_pi: float) -> bool:
    for angle in (state.W, state.Z):
        dist = np.minimum(np.abs(angle - np.pi), np.abs(angle + np.pi))
        if float(np.min(dist)) < tol_pi:
            return True
    return False


def path_length(path: PathOfStates, alpha: float = DEFAULT_ALPHA,
                search: str = "eta_zero", tol_pi: float = 1e-3,
                **norm_kw) -> float:
    """Trapezoid theta-integral of the tangent norm along the path.

    Nodes whose state touches an angle level within tol_pi are excluded
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
    keep = np.array([not _touches_pi(st, tol_pi) for st in path.states])
    if not keep.any():
        raise AnalysisError("every theta node touches an angle level")
    total_kept = float(np.sum(weights[keep]))
    span = float(np.sum(weights))
    length = 0.0
    for j in range(m):
        if not keep[j]:
            continue
        info = tangent_norm_info(path.states[j], _path_tangent(path, j),
                                 alpha, search, **norm_kw)
        length += weights[j] * info.value
    return length * (span / total_kept)


def distance_upper(state0: TransformedState, state1: TransformedState,
                   alpha: float = DEFAULT_ALPHA, m_theta: int = 9,
                   search: str = "eta_zero",
                   bounds: OmegaBounds = OmegaBounds(), **norm_kw) -> float:
    """Length of the straight-line path, whose states must lie in bounds."""
    path = straight_line_path(state0, state1, m_theta, bounds)
    return path_length(path, alpha, search, **norm_kw)


def lipschitz_experiment(datum0: EulerDatum, datum1: EulerDatum, grid: Grid,
                         T: float, dt: float, alpha: float = DEFAULT_ALPHA,
                         m_theta: int = 9, search: str = "eta_zero",
                         record_every: int = 50,
                         bounds: OmegaBounds = OmegaBounds(),
                         **norm_kw) -> list[RatioRow]:
    """Distance ratios d(t)/d(0) along both time directions."""
    state0 = transform_with_map(datum0, grid)
    state1 = transform_with_map(datum1, grid)
    runs = []
    for sgn in (-1.0, 1.0):
        tr0 = evolve(state0, sgn * T, sgn * dt, record_every, bounds)
        tr1 = evolve(state1, sgn * T, sgn * dt, record_every, bounds)
        runs.append((tr0, tr1))
    iters_field = (0 if search == "eta_zero"
                   else norm_kw.get("iters", DEFAULT_DESCENT_ITERS))
    rows = {}
    for tr0, tr1 in runs:
        for i, t in enumerate(tr0.times):
            if t in rows:
                continue  # t = 0: both directions start from the same states
            rows[t] = distance_upper(tr0.states[i], tr1.states[i], alpha,
                                     m_theta, search, bounds, **norm_kw)
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
                              search_mode=search, eta_iterations=iters_field))
    return table
