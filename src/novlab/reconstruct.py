"""Back-transform from characteristic variables to Eulerian fields.

Fields are kept in graph (parametric) form: x = y(xi) with nodal values
carried along, never resampled onto a uniform x-grid.  Near breaking
the graph stays smooth while u_x blows up, so slopes get a validity
mask instead of a resample.  The slopes tan(angle/2) are 2pi-periodic
in the unwrapped angles, so no normalization is needed before
evaluating them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ContractError, QueryError
from .evolution import ConservedSet, densities
from .initial import TransformedState
from .sources import _slopes, slope_factors, xi_derivatives

__all__ = [
    "EulerField",
    "MASK_TOL",
    "euler_fields",
    "sample_at",
    "measure_interval",
    "conserved_euler",
    "crest_position",
]

# Slopes are masked where |cos(angle/2)| drops below this; tan would
# exceed 1e6 there, past any meaningful desk-scale resolution.
MASK_TOL = 1e-6


@dataclass(frozen=True)
class EulerField:
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    ux: np.ndarray
    vx: np.ndarray
    ux_valid: np.ndarray
    vx_valid: np.ndarray


def euler_fields(state: TransformedState, mask_tol: float = MASK_TOL) -> EulerField:
    y = state.y
    drops = np.diff(y)
    # A cell's drop is dx times the cell mean of y_xi >= 0, and the
    # integrated map carries the scheme's spatial error (eighth order on
    # each smooth piece), so a collapsed arc of it may dip below zero; on
    # steep_front at n = 257 and 513 none does through t = 3.36, where
    # the angle guard stops the run.  Dips up to dx^3, or 1e-6 of the
    # span on fine grids, are that noise; order-one dips mean a
    # corrupted map.
    # Accepted dips are flattened so the graph stays a valid
    # nondecreasing parametrization.
    tol = max(1e-6 * max(1.0, float(np.ptp(y))), state.grid.dx ** 3)
    if drops.size and float(np.min(drops)) < -tol:
        k = int(np.argmin(drops))
        raise ContractError(f"y decreases at cell {k}: delta={drops[k]:.3e}")
    y = np.maximum.accumulate(y)
    # Slopes T = tan(angle/2), rows u and v from W and Z, masked where
    # cos^2 = 1/(1 + T^2) < mask_tol |mask_tol| (no finite T for a negative
    # mask_tol) or T is NaN: |cos| < mask_tol exactly for mask_tol <= 0.05 or
    # outside (0, 1); nearer 1, a node ulps from the edge may round across.
    T = _slopes(state)
    valid = mask_tol * abs(mask_tol) * (1.0 + T * T) <= 1.0
    slope = np.where(valid, T, np.nan)
    return EulerField(
        x=y,
        u=state.U.copy(),
        v=state.V.copy(),
        ux=slope[0],
        vx=slope[1],
        ux_valid=valid[0],
        vx_valid=valid[1],
    )


def sample_at(field: EulerField, x_query):
    """Piecewise-linear point samples of (u, v) on the graph.

    Exact plateaus (repeated x) resolve to the leftmost node, matching
    the convention that multi-valued parameter intervals collapse from
    the left.
    """
    xq = np.asarray(x_query, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    x = field.x
    inside = (xq >= x[0]) & (xq <= x[-1])  # False for NaN as well
    if not inside.all():
        bad, lo, hi = float(xq[~inside][0]), float(x[0]), float(x[-1])
        raise QueryError(f"x={bad!r} outside graph range [{lo!r}, {hi!r}]")
    idx = np.searchsorted(x, xq, side="left")
    idx = np.clip(idx, 0, x.size - 1)
    exact = x[idx] == xq
    cell = np.clip(idx - 1, 0, x.size - 2)
    width = x[cell + 1] - x[cell]
    frac = np.where(width > 0, (xq - x[cell]) / np.where(width > 0, width, 1.0), 0.0)

    def interp(f):
        lin = f[cell] + frac * (f[cell + 1] - f[cell])
        return np.where(exact, f[idx], lin)

    u = interp(field.u)
    v = interp(field.v)
    if scalar:
        return float(u[0]), float(v[0])
    return u, v


def _measure_density(state: TransformedState) -> np.ndarray:
    # y_xi times the Eulerian density u_x^2 + v_x^2 + u_x^2 v_x^2.
    T, _ = slopes = slope_factors(state)
    tw2, tz2 = np.square(T)
    return xi_derivatives(state, slopes)[0] * (tw2 + tz2 + tw2 * tz2)


def _cut(y, value, side):
    """Sub-cell coordinate and interpolation weight where y crosses value."""
    if side == "lo":
        i = int(np.searchsorted(y, value, side="left"))
        cell = i - 1
    else:
        i = int(np.searchsorted(y, value, side="right")) - 1
        cell = i
    gap = y[cell + 1] - y[cell]
    frac = (value - y[cell]) / gap if gap > 0 else 0.0
    return cell, float(np.clip(frac, 0.0, 1.0))


def measure_interval(state: TransformedState, a: float, b: float) -> float:
    """Energy-measure mass carried by characteristics landing in [a, b]."""
    if not a <= b:
        raise ContractError(f"need a <= b, got [{a}, {b}]")
    y = state.y
    m = _measure_density(state)
    dx = state.grid.dx
    if b < y[0] or a > y[-1]:
        return 0.0
    if a <= y[0]:
        cell_a, frac_a = 0, 0.0
    else:
        cell_a, frac_a = _cut(y, a, "lo")
    if b >= y[-1]:
        cell_b, frac_b = y.size - 2, 1.0
    else:
        cell_b, frac_b = _cut(y, b, "hi")
    m_a = m[cell_a] + frac_a * (m[cell_a + 1] - m[cell_a])
    m_b = m[cell_b] + frac_b * (m[cell_b + 1] - m[cell_b])
    if cell_a == cell_b:
        return max(0.5 * (m_a + m_b) * (frac_b - frac_a) * dx, 0.0)
    total = 0.5 * (m_a + m[cell_a + 1]) * (1.0 - frac_a) * dx
    if cell_b > cell_a + 1:
        inner = m[cell_a + 1:cell_b + 1]
        total += 0.5 * dx * float(np.sum(inner[:-1] + inner[1:]))
    total += 0.5 * (m[cell_b] + m_b) * frac_b * dx
    return float(total)


def _graph_quad(f, x) -> float:
    return float(np.sum(0.5 * (f[:-1] + f[1:]) * np.diff(x)))


def _mask_ranges(x, valid) -> list[tuple[float, float]]:
    # The first and last x of each run of invalid nodes: a run starts
    # where the padded mask steps up and ends a node before it steps down.
    steps = np.diff(np.concatenate(([0], ~valid, [0])))
    first, end = np.flatnonzero(steps > 0), np.flatnonzero(steps < 0)
    return list(zip(x[first].tolist(), x[end - 1].tolist()))


def conserved_euler(field: EulerField) -> ConservedSet:
    """The four functionals as quadratures on the nonuniform x-graph."""
    if not (field.ux_valid.all() and field.vx_valid.all()):
        bad = _mask_ranges(field.x, field.ux_valid & field.vx_valid)
        raise AnalysisError(
            f"slope masks fire on x-ranges {bad}; Eulerian functionals "
            "are only defined in the smooth regime")
    return ConservedSet(*(_graph_quad(f, field.x) for f in densities(
        field.u, field.v, field.ux, field.vx)))


def crest_position(field: EulerField, component: str = "u",
                   exclude: int = 3, flank: int = 12) -> tuple[float, float]:
    """Locate a kink-type crest by intersecting log-linear flank fits.

    The discrete argmax is biased by up to one cell; for exponential
    peaks log|f| is linear on both flanks, so fitting each side away
    from the rounded tip and intersecting recovers the crest to far
    below cell width.  Returns (x_star, f_star).
    """
    f = getattr(field, component)
    i0 = int(np.argmax(f))
    left = slice(max(i0 - exclude - flank, 0), i0 - exclude + 1)
    right = slice(i0 + exclude, min(i0 + exclude + flank + 1, f.size))
    if left.stop - left.start < 4 or right.stop - right.start < 4:
        raise AnalysisError("crest too close to the window edge to fit")
    if np.any(f[left] <= 0) or np.any(f[right] <= 0):
        raise AnalysisError("flank values not positive; log fit undefined")
    kl, bl = np.polyfit(field.x[left], np.log(f[left]), 1)
    kr, br = np.polyfit(field.x[right], np.log(f[right]), 1)
    if kl == kr:
        raise AnalysisError("flank slopes equal; no crest intersection")
    x_star = (br - bl) / (kl - kr)
    return float(x_star), float(np.exp(kl * x_star + bl))
