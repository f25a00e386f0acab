"""Finsler tangent norm, path lengths, and distance upper bounds.

The norm of a tangent vector at a state is an infimum over a shift
field eta of a weighted L1 sum of six affine expressions; since each
integrand is |affine in eta|, the objective is convex piecewise linear
in any finite parameterization of eta.  The search space here is an
m-node piecewise-linear shift with box-bounded coefficients, explored
by projected subgradient descent with step a/k; eta = 0 is always
evaluated first, so every reported value is a certified upper bound and
descent can only improve it.  Distances are upper bounds obtained from
the straight-line path between states.
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
    "TangentVector",
    "ShiftField",
    "PathOfStates",
    "NormInfo",
    "RatioRow",
    "z_shift",
    "phi_values",
    "tangent_norm",
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
class TangentVector:
    R: np.ndarray
    S: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray

    def scaled(self, lam: float) -> "TangentVector":
        return TangentVector(lam * self.R, lam * self.S, lam * self.A,
                             lam * self.B, lam * self.Q)

    def plus(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.R + other.R, self.S + other.S,
                             self.A + other.A, self.B + other.B,
                             self.Q + other.Q)


def zero_tangent(grid: Grid) -> TangentVector:
    z = np.zeros(grid.n)
    return TangentVector(z.copy(), z.copy(), z.copy(), z.copy(), z.copy())


@dataclass(frozen=True)
class ShiftField:
    """Piecewise-linear shift on m coarse nodes spanning the grid."""

    coarse: np.ndarray
    coeffs: np.ndarray

    @staticmethod
    def zeros(grid: Grid, m: int = DEFAULT_ETA_NODES) -> "ShiftField":
        if m < 2:
            raise ContractError(f"shift field needs m >= 2 nodes, got {m}")
        return ShiftField(np.linspace(grid.xi_min, grid.xi_max, m), np.zeros(m))

    def with_coeffs(self, coeffs: np.ndarray) -> "ShiftField":
        return ShiftField(self.coarse, np.asarray(coeffs, dtype=float))

    def eta(self, nodes: np.ndarray) -> np.ndarray:
        return np.interp(nodes, self.coarse, self.coeffs)

    def eta_prime(self, nodes: np.ndarray) -> np.ndarray:
        slopes = np.diff(self.coeffs) / np.diff(self.coarse)
        idx = np.clip(np.searchsorted(self.coarse, nodes, side="right") - 1,
                      0, self.coarse.size - 2)
        return slopes[idx]


@dataclass(frozen=True)
class PathOfStates:
    theta_nodes: np.ndarray
    states: tuple[TransformedState, ...]
    ys: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class NormInfo:
    value: float
    search: str
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


def z_shift(state: TransformedState, tangent: TangentVector) -> np.ndarray:
    """First variation of the characteristic map under the tangent."""
    sinW, sinZ, cw, sw, cz, sz = half_angle_factors(state)
    integrand = (tangent.Q * (cw * cz)
                 - 0.5 * state.q * tangent.A * sinW * cz
                 - 0.5 * state.q * tangent.B * cw * sinZ)
    return prefix_integral(integrand, state.grid)


def phi_values(state: TransformedState, y, tangent: TangentVector,
               eta: ShiftField | None = None):
    """The six weighted integrand factors entering the norm."""
    derivs = None if eta is None else _state_derivatives(state)
    return _phis(state, tangent, eta, derivs, z_shift(state, tangent))


def _phis(state: TransformedState, tangent: TangentVector,
          eta: ShiftField | None, derivs, z):
    # derivs and z depend only on (state, tangent); the descent computes
    # them once and varies eta alone.  With eta = None (eta = 0) the eta
    # terms drop out and derivs is not read; only the signs of zeros can
    # differ from multiplying by a zero eta, and the objective takes abs.
    q = state.q
    if eta is None:
        return (z * q, tangent.R * q, tangent.S * q, 0.5 * tangent.A * q,
                0.5 * tangent.B * q, tangent.Q.copy())
    y_xi, u_xi, v_xi, w_xi, z_xi, q_xi = derivs
    eta_v = eta.eta(state.grid.nodes)
    eta_p = eta.eta_prime(state.grid.nodes)
    phi1 = (z + eta_v * y_xi) * q
    phi2 = (tangent.R + eta_v * u_xi) * q
    phi3 = (tangent.S + eta_v * v_xi) * q
    phi4 = 0.5 * (tangent.A + eta_v * w_xi) * q
    phi5 = 0.5 * (tangent.B + eta_v * z_xi) * q
    phi6 = tangent.Q + eta_v * q_xi + eta_p * q
    return phi1, phi2, phi3, phi4, phi5, phi6


def _quad_weights(grid: Grid, y, alpha: float) -> np.ndarray:
    w = np.full(grid.n, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    return w * np.exp(-alpha * np.abs(np.asarray(y, dtype=float)))


def _objective(weights, phis) -> float:
    return float(sum(weights @ np.abs(p) for p in phis))


def _hat_matrices(shift: ShiftField, grid: Grid):
    nodes = grid.nodes
    coarse = shift.coarse
    m = coarse.size
    spacing = coarse[1] - coarse[0]
    hat = np.maximum(0.0, 1.0 - np.abs(nodes[None, :] - coarse[:, None]) / spacing)
    idx = np.clip(np.searchsorted(coarse, nodes, side="right") - 1, 0, m - 2)
    hat_p = np.zeros((m, nodes.size))
    rows = np.arange(nodes.size)
    hat_p[idx, rows] = -1.0 / spacing
    hat_p[idx + 1, rows] = 1.0 / spacing
    return hat, hat_p


def tangent_norm_info(state: TransformedState, y, tangent: TangentVector,
                      alpha: float = DEFAULT_ALPHA, search: str = "eta_zero",
                      eta_nodes: int = DEFAULT_ETA_NODES,
                      iters: int = DEFAULT_DESCENT_ITERS) -> NormInfo:
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must lie strictly in (0,1), got {alpha}")
    grid = state.grid
    weights = _quad_weights(grid, y, alpha)
    z = z_shift(state, tangent)
    value0 = _objective(weights, _phis(state, tangent, None, None, z))
    if search == "eta_zero":
        return NormInfo(value=value0, search=search, iterations=0,
                        eta_zero_value=value0, best_coeffs=None)
    if search != "coarse_descent":
        raise ContractError(f"unknown search mode {search!r}")
    derivs = _state_derivatives(state)

    shift = ShiftField.zeros(grid, eta_nodes)
    box = 0.5 * (shift.coarse[1] - shift.coarse[0])
    hat, hat_p = _hat_matrices(shift, grid)
    y_xi, u_xi, v_xi, w_xi, z_xi, q_xi = derivs
    q = state.q

    def subgradient(phis):
        p1, p2, p3, p4, p5, p6 = phis
        core = (np.sign(p1) * y_xi + np.sign(p2) * u_xi + np.sign(p3) * v_xi
                + 0.5 * np.sign(p4) * w_xi + 0.5 * np.sign(p5) * z_xi) * q \
            + np.sign(p6) * q_xi
        return hat @ (weights * core) + hat_p @ (weights * np.sign(p6) * q)

    best_val = value0
    best_c = shift.coeffs.copy()
    c = shift.coeffs.copy()
    g = subgradient(_phis(state, tangent, shift, derivs, z))
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return NormInfo(value=best_val, search=search, iterations=0,
                        eta_zero_value=value0, best_coeffs=best_c)
    step_scale = 0.2 * box / gnorm
    used = 0
    for k in range(1, iters + 1):
        c = np.clip(c - (step_scale / k) * g, -box, box)
        phis = _phis(state, tangent, shift.with_coeffs(c), derivs, z)
        val = _objective(weights, phis)
        used = k
        if val < best_val:
            best_val = val
            best_c = c.copy()
        g = subgradient(phis)
        if float(np.linalg.norm(g)) == 0.0:
            break
    return NormInfo(value=best_val, search=search, iterations=used,
                    eta_zero_value=value0, best_coeffs=best_c)


def tangent_norm(state: TransformedState, y, tangent: TangentVector,
                 alpha: float = DEFAULT_ALPHA, search: str = "eta_zero",
                 **kw) -> float:
    return tangent_norm_info(state, y, tangent, alpha, search, **kw).value


def straight_line_path(end0: TransformedState, end1: TransformedState,
                       y0, y1, m_theta: int,
                       bounds: OmegaBounds = OmegaBounds()) -> PathOfStates:
    if end0.grid != end1.grid:
        raise ContractError("path endpoints must share a grid")
    if m_theta < 3:
        raise ContractError(f"need m_theta >= 3 nodes, got {m_theta}")
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    thetas = np.linspace(0.0, 1.0, m_theta)
    states, ys = [], []
    for j, th in enumerate(thetas):
        if j == 0:
            st, ym = end0, y0
        elif j == m_theta - 1:
            st, ym = end1, y1
        else:
            # Anchored form: identical endpoints collapse bitwise, so the
            # self-distance is exactly zero instead of one-ulp noise.
            st = end0.with_fields(
                t=end0.t + th * (end1.t - end0.t),
                U=end0.U + th * (end1.U - end0.U),
                V=end0.V + th * (end1.V - end0.V),
                W=end0.W + th * (end1.W - end0.W),
                Z=end0.Z + th * (end1.Z - end0.Z),
                q=end0.q + th * (end1.q - end0.q),
            )
            ym = y0 + th * (y1 - y0)
        try:
            check_omega(st, bounds)
        except NumericalAbort as err:
            raise AnalysisError(
                f"straight-line path leaves the validity region at "
                f"theta={th:.4f}: {err}") from err
        states.append(st)
        ys.append(ym)
    return PathOfStates(theta_nodes=thetas, states=tuple(states), ys=tuple(ys))


def _path_tangent(path: PathOfStates, j: int) -> TangentVector:
    states = path.states
    m = len(states)
    if j == 0:
        a, b, h = 0, 1, path.theta_nodes[1] - path.theta_nodes[0]
    elif j == m - 1:
        a, b, h = m - 2, m - 1, path.theta_nodes[-1] - path.theta_nodes[-2]
    else:
        a, b, h = j - 1, j + 1, path.theta_nodes[j + 1] - path.theta_nodes[j - 1]
    sa, sb = states[a], states[b]
    return TangentVector(
        R=(sb.U - sa.U) / h,
        S=(sb.V - sa.V) / h,
        A=(sb.W - sa.W) / h,
        B=(sb.Z - sa.Z) / h,
        Q=(sb.q - sa.q) / h,
    )


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
        norm = tangent_norm(path.states[j], path.ys[j], _path_tangent(path, j),
                            alpha, search, **norm_kw)
        length += weights[j] * norm
    return length * (span / total_kept)


def distance_upper(state0: TransformedState, y0,
                   state1: TransformedState, y1,
                   alpha: float = DEFAULT_ALPHA, m_theta: int = 9,
                   search: str = "eta_zero", **norm_kw) -> float:
    path = straight_line_path(state0, state1, y0, y1, m_theta)
    return path_length(path, alpha, search, **norm_kw)


def lipschitz_experiment(datum0: EulerDatum, datum1: EulerDatum, grid: Grid,
                         T: float, dt: float, alpha: float = DEFAULT_ALPHA,
                         m_theta: int = 9, search: str = "eta_zero",
                         record_every: int = 50,
                         bounds: OmegaBounds = OmegaBounds(),
                         **norm_kw) -> list[RatioRow]:
    """Distance ratios d(t)/d(0) along both time directions."""
    state0, ymap0 = transform_with_map(datum0, grid)
    state1, ymap1 = transform_with_map(datum1, grid)
    runs = []
    for sgn in (-1.0, 1.0):
        tr0 = evolve(state0, ymap0, sgn * T, sgn * dt, record_every, bounds)
        tr1 = evolve(state1, ymap1, sgn * T, sgn * dt, record_every, bounds)
        runs.append((sgn, tr0, tr1))
    iters_field = (0 if search == "eta_zero"
                   else norm_kw.get("iters", DEFAULT_DESCENT_ITERS))
    rows = {}
    d0 = None
    for sgn, tr0, tr1 in runs:
        for i, t in enumerate(tr0.times):
            d = distance_upper(tr0.states[i], tr0.ys[i],
                               tr1.states[i], tr1.ys[i],
                               alpha, m_theta, search, **norm_kw)
            rows[t] = d
            if t == 0.0:
                d0 = d
    if d0 is None:
        raise AnalysisError("no t=0 record in the Lipschitz experiment")
    table = []
    for t in sorted(rows):
        d = rows[t]
        ratio = d / d0 if d0 > 0.0 else 0.0
        table.append(RatioRow(t=t, d_t_upper=d, ratio=ratio,
                              search_mode=search, eta_iterations=iters_field))
    return table
