"""Fixed-step RK4 evolution of the characteristic-variable system.

The right-hand side is nonlocal through the kernel quadratures but has
no spatial derivatives, so the semi-discretization is a plain ODE per
node and classical RK4 applies.  W and Z are never wrapped during
integration; their crossings of +-pi are the wave-breaking events the
analysis modules look for.  The characteristic positions y ride along
with rate U*V, and each recorded frame cross-checks the integrated y
against y[0] plus the kernel potential G.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_Q_HI, DEFAULT_Q_LO, DEFAULT_SLACK
from .errors import ContractError, EvolveAbort, NumericalAbort
from .grid import integrate
from .initial import TransformedState
from .sources import (SourcePlan, assemble_sources, kernel_accumulator,
                      kink_weights, slope_factors, xi_derivatives)

__all__ = [
    "OmegaBounds",
    "ConservedSet",
    "Trajectory",
    "rhs",
    "rk4_step",
    "densities",
    "conserved",
    "evolve",
    "check_omega",
]


@dataclass(frozen=True)
class OmegaBounds:
    """Validity region for the discrete state.

    The rates read the angles W and Z only through T = tan(angle/2) and
    c = cos^2(angle/2), which repeat with period 2pi, so the equations
    set no bound on the angles: angle_max = 3pi/2 is a guard default,
    enforced as-is, that stops a run a quarter turn past a breaking level.
    The q box gets a slack factor because its endpoints are diagnostic
    defaults, not theory.
    """

    q_lo: float = DEFAULT_Q_LO
    q_hi: float = DEFAULT_Q_HI
    slack: float = DEFAULT_SLACK
    angle_max: float = 1.5 * np.pi


@dataclass(frozen=True)
class ConservedSet:
    E_u: float
    E_v: float
    G: float
    H: float


@dataclass
class Trajectory:
    """One run of evolve, a single-pass iterator over its recorded states,
    state0 first.  Iterating steps the run; before each state is yielded,
    its time, conserved set and y check are appended to the logs, which
    are never rebound.  No state is kept."""

    times: list[float]
    conserved_log: list[ConservedSet]
    y_checks: list[float]
    _steps: Iterator[TransformedState] = field(repr=False)

    def __iter__(self) -> Trajectory:
        return self

    def __next__(self) -> TransformedState:
        return next(self._steps)


def rhs(state: TransformedState, out=None, plan=None) -> np.ndarray:
    """Time derivative of state.data, as a (6, n) array in the same row order.

    out, if given, receives it; plan (a sources.SourcePlan on the
    state's grid and kinks) lends the source pass its buffers, and a call
    without one takes fresh ones.
    """
    if plan is None:
        plan = SourcePlan(state.grid, kinks=state.kinks)
    fwd, bwd = assemble_sources(state, plan)
    # The source pass leaves T, c, the swap B and A A B in the plan.
    # (U, V) and (V, U): each pair of rates is one formula on row pairs.
    (T, c), A, B, a2b = (plan.slopes, state.data[:2], plan.swapped[0],
                         plan.a2b)
    if out is None:
        out = np.empty_like(state.data)
    # -dx P1 - P2, and e = A^2 B - drive with the drive P1 + dx P2 (S in
    # row 1): the angle rate is c (2 e - B T^2) and the q rate
    # q (T c (2 e + B) + the same with roles swapped).  Both c products
    # run on the stack of rows 2-5.
    np.subtract(fwd, bwd, out=out[:2])
    e = np.subtract(a2b, np.add(fwd, bwd, out=fwd), out=a2b)
    rates = out[2:6].reshape(2, *A.shape)
    rate, dq = rates
    np.multiply(2.0, e, out=rate)
    np.add(rate, B, out=dq)
    np.multiply(B, T, out=fwd)
    rate -= np.multiply(fwd, T, out=fwd)
    dq *= T
    rates *= c
    np.add(dq[0], dq[1], out=out[4])
    out[4] *= state.q
    np.multiply(A[0], A[1], out=out[5])
    return out


def check_omega(state: TransformedState, bounds: OmegaBounds) -> None:
    # Row maxima and minima carry a NaN or an infinity of their row, so
    # they screen for non-finite entries and give the bounds at once.
    hi = np.maximum.reduce(state.data, axis=1).tolist()
    lo = np.minimum.reduce(state.data, axis=1).tolist()
    if not all(map(math.isfinite, hi + lo)):
        raise NumericalAbort("non-finite state entry", {"t": state.t})
    q_min, q_max = lo[4], hi[4]
    # max |W| is max(max W, -min W); abs only turns a -0.0 into +0.0.
    w_max, z_max = abs(max(hi[2], -lo[2])), abs(max(hi[3], -lo[3]))
    q_out = q_min < bounds.q_lo / bounds.slack or q_max > bounds.q_hi * bounds.slack
    if q_out or w_max > bounds.angle_max or z_max > bounds.angle_max:
        diag = {"t": state.t, "q_min": q_min, "q_max": q_max,
                "w_max": w_max, "z_max": z_max}
        if q_out:
            raise NumericalAbort(
                f"q left its validity box at t={state.t:.6g}: "
                f"[{q_min:.3e}, {q_max:.3e}]", diag)
        raise NumericalAbort(
            f"angle bound {bounds.angle_max / np.pi:.6g}pi exceeded at "
            f"t={state.t:.6g}: max|W|={w_max:.4f}, max|Z|={z_max:.4f}", diag)


class Workspace:
    """What the RK4 stages of one grid and its kinks reuse from step to
    step: the stage state (one TransformedState over a buffer the stages
    overwrite), the running stage sum, one rate buffer and the source
    pass's plan."""

    def __init__(self, grid, kinks=()):
        self.stage = TransformedState(0.0, grid, np.empty((6, grid.n)), kinks)
        self.acc = np.empty((6, grid.n))
        self.k = np.empty((6, grid.n))
        self.plan = SourcePlan(grid, kinks=kinks)


def rk4_step(state: TransformedState, dt: float,
             bounds: OmegaBounds = OmegaBounds(),
             work: Workspace | None = None) -> TransformedState:
    """One classical RK4 step of the state, map included; dt may be negative.

    work, a Workspace on the state's grid and kinks, lets successive
    steps share their buffers; evolve passes one to all its steps.  Its
    plan checks them: one for another grid or kinks raises ContractError.
    """
    if not math.isfinite(dt) or dt == 0.0:
        raise ContractError(f"rk4_step needs a finite nonzero dt, got {dt!r}")
    if work is None:
        work = Workspace(state.grid, state.kinks)
    x, stage, acc, k, plan = (state.data, work.stage, work.acc, work.k,
                              work.plan)
    s = stage.data
    half = 0.5 * dt
    # acc sums ((k1 + 2 k2) + 2 k3) + k4 while each stage x + h k forms
    # in the stage buffer.
    rhs(state, acc, plan)
    np.multiply(acc, half, out=s)
    s += x
    rhs(stage, k, plan)
    np.multiply(k, half, out=s)
    s += x
    k *= 2.0
    acc += k
    rhs(stage, k, plan)
    np.multiply(k, dt, out=s)
    s += x
    k *= 2.0
    acc += k
    rhs(stage, k, plan)
    acc += k
    new = np.multiply(acc, dt / 6.0)
    new += x
    new = TransformedState(state.t + dt, state.grid, new, state.kinks)
    check_omega(new, bounds)
    return new


def densities(u, v, ux, vx):
    """The Eulerian densities of E_u, E_v, G and H at (u, v, u_x, v_x)."""
    return (u * u + ux * ux, v * v + vx * vx, u * v + ux * vx,
            3.0 * u * u * v * v + u * u * vx * vx + ux * ux * v * v
            + 4.0 * u * ux * v * vx - ux * ux * vx * vx)


def conserved(state: TransformedState) -> ConservedSet:
    """The four functionals as xi-quadratures: with dx = y_xi dxi and
    (u_x, v_x) = T, each integrand is y_xi times its Eulerian density.

    The quadrature is the trapezoid, which a kink of the state would cut
    to low order: near each kink it takes the node weights of the
    piecewise 8-point composite rule instead (sources.kink_weights).
    """
    T, _ = slopes = slope_factors(state)
    y_xi = xi_derivatives(state, slopes)[0]
    rows = [y_xi * f for f in densities(state.U, state.V, *T)]
    values = [integrate(row, state.grid) for row in rows]
    if state.kinks:
        nodes, extra = kink_weights(state.grid, state.kinks)
        values = [value + float(extra @ row[nodes])
                  for value, row in zip(values, rows)]
    return ConservedSet(*values)


def y_formula_gap(state: TransformedState) -> float:
    """Max gap between the integrated y and y[0] plus the kernel
    potential G of the state, the prefix integral of y_xi by the rule the
    kernel integrates with, kinks included."""
    y = state.y
    y_static = y[0] + kernel_accumulator(xi_derivatives(state)[0], state.grid,
                                         state.kinks)
    return float(np.max(np.abs(y - y_static)))


def evolve(state0: TransformedState, t_final: float, dt: float,
           record_every: int = 1,
           bounds: OmegaBounds = OmegaBounds()) -> Trajectory:
    """The run to t_final, recording every record_every-th step and the
    last, as a Trajectory.  The arguments and state0 are checked here; a
    guard trip raises EvolveAbort, naming its step, from the iteration.
    """
    if record_every < 1:
        raise ContractError(f"record_every must be >= 1, got {record_every}")
    if not np.isfinite(dt) or dt == 0.0:
        raise ContractError(f"dt must be finite and nonzero, got {dt!r}")
    if not np.isfinite(t_final):
        raise ContractError(f"t_final must be finite, got {t_final!r}")
    ratio = t_final / dt
    n_steps = int(round(ratio))
    if n_steps < 0 or abs(ratio - n_steps) > 1e-9 * max(1.0, abs(ratio)):
        raise ContractError(
            f"t_final/dt = {ratio!r} is not a nonnegative integer")
    check_omega(state0, bounds)
    logs = ([], [], [])
    return Trajectory(*logs, _records(state0, dt, n_steps, record_every,
                                      bounds, *logs))


def _records(state, dt, n_steps, record_every, bounds, times, conserved_log,
             y_checks):
    # It appends to the logs, not to the Trajectory, so that the two form
    # no reference cycle: a dropped run frees its state and buffers at once.
    t0 = state.t
    work = Workspace(state.grid, state.kinks)
    for k in range(n_steps + 1):
        if k > 0:
            try:
                state = rk4_step(state, dt, bounds, work)
            except NumericalAbort as err:
                raise EvolveAbort(
                    f"evolution aborted at step {k}/{n_steps}: {err}",
                    dict(err.diagnostics, step=k)) from err
            state = state.with_fields(t=t0 + k * dt)
        if k % record_every == 0 or k == n_steps:
            times.append(state.t)
            conserved_log.append(conserved(state))
            y_checks.append(y_formula_gap(state))
            yield state
