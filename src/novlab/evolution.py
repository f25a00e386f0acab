"""Fixed-step RK4 evolution of the characteristic-variable system.

The right-hand side is nonlocal through the kernel quadratures but has
no spatial derivatives, so the semi-discretization is a plain ODE per
node and classical RK4 applies.  W and Z are never wrapped during
integration; their crossings of +-pi are the wave-breaking events the
analysis modules look for.  The characteristic positions y ride along
with rate U*V, and each recorded frame cross-checks the integrated y
against the static prefix-integral formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EvolveAbort, NumericalAbort
from .grid import integrate, prefix_integral
from .initial import TransformedState
from .sources import assemble_sources, half_angle_factors, xi_derivatives

__all__ = [
    "OmegaBounds",
    "ConservedSet",
    "StateDeriv",
    "Trajectory",
    "rhs",
    "rk4_step",
    "conserved",
    "evolve",
    "check_omega",
]


@dataclass(frozen=True)
class OmegaBounds:
    """Validity region for the discrete state.

    The angle bound 3*pi/2 is structural and enforced as-is; the q box
    gets a slack factor because its endpoints are diagnostic defaults,
    not theory.
    """

    q_lo: float = 0.01
    q_hi: float = 100.0
    slack: float = 1.5
    angle_max: float = 1.5 * np.pi


@dataclass(frozen=True)
class ConservedSet:
    E_u: float
    E_v: float
    G: float
    H: float


@dataclass(frozen=True)
class StateDeriv:
    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    q: np.ndarray
    y: np.ndarray


@dataclass
class Trajectory:
    times: list[float]
    states: list[TransformedState]
    ys: list[np.ndarray]
    conserved_log: list[ConservedSet]
    y_checks: list[float]


def _angle_rate(A, B, cA, sA, drive):
    # One line of the angle equations; called for W with (U, V) and the
    # P-sources, and for Z with the roles swapped.
    return 2.0 * A * A * B * cA - B * sA - 2.0 * drive * cA


def rhs(state: TransformedState) -> StateDeriv:
    factors = half_angle_factors(state)
    src = assemble_sources(state, factors)
    sinW, sinZ, cw, sw, cz, sz = factors
    U, V, q = state.U, state.V, state.q
    drive_w = src.P1 + src.dxP2
    drive_z = src.S1 + src.dxS2
    dU = -src.dxP1 - src.P2
    dV = -src.dxS1 - src.S2
    dW = _angle_rate(U, V, cw, sw, drive_w)
    dZ = _angle_rate(V, U, cz, sz, drive_z)
    dq = q * (U * U * V + 0.5 * V - drive_w) * sinW \
        + q * (V * V * U + 0.5 * U - drive_z) * sinZ
    dy = U * V
    return StateDeriv(U=dU, V=dV, W=dW, Z=dZ, q=dq, y=dy)


def check_omega(state: TransformedState, bounds: OmegaBounds) -> None:
    arrays = (state.U, state.V, state.W, state.Z, state.q)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericalAbort("non-finite state entry", {"t": state.t})
    q_min = float(np.min(state.q))
    q_max = float(np.max(state.q))
    w_max = float(np.max(np.abs(state.W)))
    z_max = float(np.max(np.abs(state.Z)))
    diag = {"t": state.t, "q_min": q_min, "q_max": q_max,
            "w_max": w_max, "z_max": z_max}
    if q_min < bounds.q_lo / bounds.slack or q_max > bounds.q_hi * bounds.slack:
        raise NumericalAbort(
            f"q left its validity box at t={state.t:.6g}: "
            f"[{q_min:.3e}, {q_max:.3e}]", diag)
    if w_max > bounds.angle_max or z_max > bounds.angle_max:
        raise NumericalAbort(
            f"angle bound 3pi/2 exceeded at t={state.t:.6g}: "
            f"max|W|={w_max:.4f}, max|Z|={z_max:.4f}", diag)


def _shifted(state: TransformedState, y, k: StateDeriv, h: float):
    new = state.with_fields(
        t=state.t + h,
        U=state.U + h * k.U,
        V=state.V + h * k.V,
        W=state.W + h * k.W,
        Z=state.Z + h * k.Z,
        q=state.q + h * k.q,
    )
    return new, y + h * k.y


def rk4_step(state: TransformedState, y, dt: float,
             bounds: OmegaBounds = OmegaBounds()):
    """One classical RK4 step of (state, y); dt may be negative."""
    if dt == 0.0:
        raise ContractError("rk4_step needs dt != 0")
    y = np.asarray(y, dtype=float)
    k1 = rhs(state)
    s2, y2 = _shifted(state, y, k1, 0.5 * dt)
    k2 = rhs(s2)
    s3, y3 = _shifted(state, y, k2, 0.5 * dt)
    k3 = rhs(s3)
    s4, y4 = _shifted(state, y, k3, dt)
    k4 = rhs(s4)
    sixth = dt / 6.0
    new = state.with_fields(
        t=state.t + dt,
        U=state.U + sixth * (k1.U + 2.0 * k2.U + 2.0 * k3.U + k4.U),
        V=state.V + sixth * (k1.V + 2.0 * k2.V + 2.0 * k3.V + k4.V),
        W=state.W + sixth * (k1.W + 2.0 * k2.W + 2.0 * k3.W + k4.W),
        Z=state.Z + sixth * (k1.Z + 2.0 * k2.Z + 2.0 * k3.Z + k4.Z),
        q=state.q + sixth * (k1.q + 2.0 * k2.q + 2.0 * k3.q + k4.q),
    )
    new_y = y + sixth * (k1.y + 2.0 * k2.y + 2.0 * k3.y + k4.y)
    check_omega(new, bounds)
    return new, new_y


def _energy(q, A, cA, sA, cOther):
    return (A * A * cA + sA) * (q * cOther)


def conserved(state: TransformedState) -> ConservedSet:
    sinW, sinZ, cw, sw, cz, sz = half_angle_factors(state)
    U, V, q, grid = state.U, state.V, state.q, state.grid
    e_u = integrate(_energy(q, U, cw, sw, cz), grid)
    e_v = integrate(_energy(q, V, cz, sz, cw), grid)
    cross = integrate(q * (U * V * (cw * cz) + 0.25 * (sinW * sinZ)), grid)
    quartic = integrate(
        q * (3.0 * U * U * V * V * (cw * cz)
             + U * U * (cw * sz) + V * V * (sw * cz)
             + U * V * (sinW * sinZ) - (sw * sz)),
        grid,
    )
    return ConservedSet(E_u=e_u, E_v=e_v, G=cross, H=quartic)


def y_formula_gap(state: TransformedState, y) -> float:
    """Max gap between integrated y and the static prefix formula."""
    y_static = y[0] + prefix_integral(xi_derivatives(state)[0], state.grid)
    return float(np.max(np.abs(y - y_static)))


def evolve(state0: TransformedState, y0, t_final: float, dt: float,
           record_every: int = 1,
           bounds: OmegaBounds = OmegaBounds()) -> Trajectory:
    """Integrate to t_final, recording every record_every-th step.

    On a guard violation the partial trajectory is attached to the
    raised EvolveAbort so callers can still export what was computed.
    """
    if record_every < 1:
        raise ContractError(f"record_every must be >= 1, got {record_every}")
    if dt == 0.0:
        raise ContractError("dt must be nonzero")
    ratio = t_final / dt
    n_steps = int(round(ratio))
    if n_steps < 0 or abs(ratio - n_steps) > 1e-9 * max(1.0, abs(ratio)):
        raise ContractError(
            f"t_final/dt = {ratio!r} is not a nonnegative integer")
    y = np.asarray(y0, dtype=float)
    check_omega(state0, bounds)
    traj = Trajectory(times=[], states=[], ys=[], conserved_log=[], y_checks=[])

    def record(st, ym):
        traj.times.append(st.t)
        traj.states.append(st)
        traj.ys.append(ym)
        traj.conserved_log.append(conserved(st))
        traj.y_checks.append(y_formula_gap(st, ym))

    record(state0, y)
    state = state0
    t0 = state0.t
    for k in range(1, n_steps + 1):
        try:
            state, y = rk4_step(state, y, dt, bounds)
        except NumericalAbort as err:
            raise EvolveAbort(
                f"evolution aborted at step {k}/{n_steps}: {err}",
                traj,
                dict(err.diagnostics if isinstance(err.diagnostics, dict) else {},
                     step=k),
            ) from err
        state = state.with_fields(t=t0 + k * dt)
        if k % record_every == 0 or k == n_steps:
            record(state, y)
    return traj
