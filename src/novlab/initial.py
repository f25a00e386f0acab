"""Initial data families and the direct transform to characteristic variables.

An EulerDatum is a pair of closed-form profiles (u0, v0) with exact
derivatives.  The transform solves, for every grid node xi, the scalar
equation F(y0) = xi where F is the cumulative integral of the density
D0(x) = (1 + u0'(x)^2)(1 + v0'(x)^2), then evaluates the angle and
stretch variables along y0.  With an absolutely continuous initial
energy measure the density never vanishes, so F is strictly increasing
and the inversion is globally well posed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, NumericalAbort
from .grid import Grid, kink_positions

__all__ = [
    "EulerDatum",
    "TransformedState",
    "builtin_datum",
    "pair_datum",
    "mirrored",
    "invert_y0",
    "transform_with_map",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60


@dataclass(frozen=True)
class EulerDatum:
    """Closed-form initial profiles with exact first derivatives.

    kinks lists the x-locations where a profile is continuous but not
    differentiable (the peakon crest); quadrature cells are split there.
    """

    u0: Callable[[np.ndarray], np.ndarray]
    v0: Callable[[np.ndarray], np.ndarray]
    du0: Callable[[np.ndarray], np.ndarray]
    dv0: Callable[[np.ndarray], np.ndarray]
    kinks: tuple[float, ...] = ()


# Row order of TransformedState.data.
FIELDS = ("U", "V", "W", "Z", "q", "y")


@dataclass(frozen=True)
class TransformedState:
    """State of the characteristic-coordinate system at one time.

    data is one (6, grid.n) float array with rows U, V, W, Z, q and the
    characteristic map y; the fields are row views of it.  They evolve
    as one semilinear ODE system, so the stepper acts on data whole.

    W and Z are kept unwrapped (no modular reduction); reconstruction
    formulas are periodic-safe so only level crossings of +-pi carry
    meaning, and those must stay visible.

    kinks holds the labels xi_k = F(x_k) of the datum's kinks.  A kink
    is a characteristic, so its label never moves, and the fields are
    smooth in xi on either side of it: the kernel quadrature takes the
    kinks as ends of its smooth pieces.
    """

    t: float
    grid: Grid
    data: np.ndarray
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.shape != (len(FIELDS), self.grid.n):
            raise ContractError(
                f"state data has shape {data.shape}, expected "
                f"({len(FIELDS)}, {self.grid.n})")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "kinks", tuple(map(float, self.kinks)))

    U = property(lambda self: self.data[0])
    V = property(lambda self: self.data[1])
    W = property(lambda self: self.data[2])
    Z = property(lambda self: self.data[3])
    q = property(lambda self: self.data[4])
    y = property(lambda self: self.data[5])

    def with_fields(self, t: float | None = None, **rows) -> "TransformedState":
        """A copy with t and the named rows replaced."""
        data = self.data
        if rows:
            data = data.copy()
            for name, row in rows.items():
                if name not in FIELDS:
                    raise ContractError(f"unknown state row {name!r}")
                if np.shape(row) != (self.grid.n,):
                    raise ContractError(
                        f"row {name} has shape {np.shape(row)}, expected "
                        f"({self.grid.n},)")
                data[FIELDS.index(name)] = row
        return TransformedState(self.t if t is None else t, self.grid, data,
                                self.kinks)


def _gaussian(a: float, center: float, width: float) -> EulerDatum:
    def f(x):
        x = np.asarray(x, dtype=float)
        return a * np.exp(-(((x - center) / width) ** 2))

    def df(x):
        x = np.asarray(x, dtype=float)
        return f(x) * (-2.0 * (x - center) / width**2)

    return EulerDatum(u0=f, v0=f, du0=df, dv0=df)


def _sech(a: float, center: float, width: float) -> EulerDatum:
    def f(x):
        x = np.asarray(x, dtype=float)
        return a / np.cosh((x - center) / width)

    def df(x):
        x = np.asarray(x, dtype=float)
        s = (x - center) / width
        return -(a / width) * np.tanh(s) / np.cosh(s)

    return EulerDatum(u0=f, v0=f, du0=df, dv0=df)


def _peakon(c: float, center: float) -> EulerDatum:
    amp = np.sqrt(c)

    def f(x):
        x = np.asarray(x, dtype=float)
        return amp * np.exp(-np.abs(x - center))

    def df(x):
        x = np.asarray(x, dtype=float)
        return -np.sign(x - center) * f(x)

    return EulerDatum(u0=f, v0=f, du0=df, dv0=df, kinks=(center,))


def _steep_front(a: float, center: float, width: float) -> EulerDatum:
    # Odd-shaped profile with a strong negative slope at the center;
    # drives the gradient toward blow-up quickly.
    def f(x):
        x = np.asarray(x, dtype=float)
        s = x - center
        return -a * s * np.exp(-((s / width) ** 2))

    def df(x):
        x = np.asarray(x, dtype=float)
        s = x - center
        return -a * (1.0 - 2.0 * s**2 / width**2) * np.exp(-((s / width) ** 2))

    return EulerDatum(u0=f, v0=f, du0=df, dv0=df)


# family -> (builder, parameter defaults, the parameter that must be > 0)
_FAMILIES = {
    "gaussian_bump": (_gaussian, {"a": 1.0, "center": 0.0, "width": 1.0},
                      "width"),
    "sech_bump": (_sech, {"a": 1.0, "center": 0.0, "width": 1.0}, "width"),
    "peakon": (_peakon, {"c": 1.0, "center": 0.0}, "c"),
    "steep_front": (_steep_front, {"a": 2.0, "center": 0.0, "width": 1.0},
                    "width"),
}


def builtin_datum(family: str, params: dict | None = None) -> EulerDatum:
    """Construct a named closed-form datum.  Unknown keys are rejected.

    Families produce u0 = v0; use pair_datum or mirrored for
    asymmetric pairs.
    """
    if family not in _FAMILIES:
        raise ConfigError(f"unknown datum family {family!r}")
    build, defaults, positive = _FAMILIES[family]
    params = {**defaults, **(params or {})}
    unknown = sorted(params.keys() - defaults.keys())
    if unknown:
        raise ConfigError(f"{family}: unknown parameters {unknown}")
    for key, val in params.items():
        try:
            params[key] = float(val)
        except (TypeError, ValueError):
            raise ConfigError(f"{family}: parameter {key!r} must be a real number")
        if not np.isfinite(params[key]):
            raise ConfigError(f"{family}: parameter {key!r} must be finite")
    if not params[positive] > 0:
        raise ConfigError(
            f"{family}: {positive} must be > 0, got {params[positive]}")
    return build(**params)


def pair_datum(u_datum: EulerDatum, v_datum: EulerDatum) -> EulerDatum:
    """Combine the u-profile of one datum with the v-profile of another."""
    return EulerDatum(
        u0=u_datum.u0,
        v0=v_datum.v0,
        du0=u_datum.du0,
        dv0=v_datum.dv0,
        kinks=tuple(sorted(set(u_datum.kinks) | set(v_datum.kinks))),
    )


def mirrored(base: EulerDatum) -> EulerDatum:
    """The u-profile of base, with v0(x) = u0(-x) its reflection."""
    return EulerDatum(
        u0=base.u0,
        v0=lambda x: base.u0(-np.asarray(x, dtype=float)),
        du0=base.du0,
        dv0=lambda x: -base.du0(-np.asarray(x, dtype=float)),
        kinks=tuple(sorted(set(base.kinks) | {-k for k in base.kinks})),
    )


# 10-point Gauss-Legendre on [-1, 1]; exact for polynomials to degree 19,
# which makes per-cell errors negligible against NEWTON_TOL for smooth D0.
# The doubles of np.polynomial.legendre.leggauss(10), written out so that
# a transform does not import numpy.polynomial.
_GL_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717])
_GL_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814])

# Panels of the density table integrated at once: a block's temporaries
# take 32 KB each, where the whole table's at n = 8192 take 262 KB.
_TABLE_BLOCK = 4096


class _CumulativeDensity:
    """F(x) = integral of D0 from 0 to x, tabulated on a refined grid.

    The table cells are split at datum kinks so every Gauss panel sees a
    smooth integrand.  Point evaluations add a partial-cell panel to the
    tabulated prefix.  A panel's ten Gauss terms are added in node order,
    elementwise, so its integral, and F at a point, take the same bits
    whatever else shares the call.
    """

    def __init__(self, datum: EulerDatum, lo: float, hi: float, h: float):
        lo = min(lo, 0.0)
        hi = max(hi, 0.0)
        n_cells = max(int(np.ceil((hi - lo) / h)), 8)
        cuts = np.linspace(lo, hi, n_cells + 1)
        interior = [k for k in datum.kinks if lo < k < hi]
        # The sorted distinct breakpoints, as np.unique would give them,
        # without the numpy.ma import np.unique makes.
        x = np.sort(np.concatenate([cuts, [0.0], interior]))
        self.x = x[np.concatenate(([True], x[1:] != x[:-1]))]
        self.datum = datum
        a, b = self.x[:-1], self.x[1:]
        cum = np.zeros(self.x.size)
        for start in range(0, a.size, _TABLE_BLOCK):
            block = slice(start, start + _TABLE_BLOCK)
            cum[1:][block] = self._panel(a[block], b[block])
        np.cumsum(cum, out=cum)
        self.cum = cum - cum[int(np.searchsorted(self.x, 0.0))]

    def density(self, x):
        du = self.datum.du0(x)
        # Every built-in family gives both components one slope callable.
        dv = du if self.datum.dv0 is self.datum.du0 else self.datum.dv0(x)
        return (1.0 + du * du) * (1.0 + dv * dv)

    def _panel(self, a, b):
        # The integral of D0 over each panel [a, b].
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        total = 0.0
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            total = total + weight * self.density(mid + half * node)
        return total * half

    def value(self, x):
        """F at the points x."""
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.x, x, side="right") - 1, 0, self.x.size - 2)
        return self.cum[idx] + self._panel(self.x[idx], x)


def _density_table(datum: EulerDatum, grid: Grid) -> _CumulativeDensity:
    return _CumulativeDensity(datum, grid.xi_min, grid.xi_max, 0.25 * grid.dx)


def invert_y0(datum: EulerDatum, grid: Grid) -> np.ndarray:
    """Solve F(y0) = xi at every grid node.

    Newton iteration with exact derivative D0, warm bracketing, and
    bisection whenever a Newton step leaves the bracket.  Since D0 >= 1,
    every root lies inside the grid window, which provides the initial
    bracket.
    """
    return _invert(_density_table(datum, grid), grid)


def _invert(table: _CumulativeDensity, grid: Grid) -> np.ndarray:
    xi = grid.nodes
    lo = np.full(grid.n, table.x[0])
    hi = np.full(grid.n, table.x[-1])
    x = np.clip(xi, lo, hi)
    resid = table.value(x) - xi
    dxold = hi - lo
    for _ in range(NEWTON_MAX_ITER):
        act = np.flatnonzero(np.abs(resid) >= NEWTON_TOL)
        if not act.size:
            break
        xa, ra = x[act], resid[act]
        hi_a = np.where(ra > 0, np.minimum(hi[act], xa), hi[act])
        lo_a = np.where(ra < 0, np.maximum(lo[act], xa), lo[act])
        hi[act], lo[act] = hi_a, lo_a
        dens = table.density(xa)
        newton = xa - ra / dens
        # Accept Newton only while it stays bracketed and keeps at least
        # halving the step; otherwise bisect.  Plain in-bracket tests let
        # Newton ping-pong between the flanks of a density spike forever.
        ok = ((newton > lo_a) & (newton < hi_a)
              & (np.abs(2.0 * ra) <= np.abs(dxold[act] * dens)))
        trial = np.where(ok, newton, 0.5 * (lo_a + hi_a))
        dxold[act] = np.abs(trial - xa)
        x[act] = trial
        resid[act] = table.value(trial) - xi[act]
    worst = float(np.max(np.abs(resid)))
    if worst >= NEWTON_TOL:
        k = int(np.argmax(np.abs(resid)))
        raise NumericalAbort(
            f"invert_y0 did not converge: residual {worst:.3e} at node {k}",
            {"worst_residual": worst, "node": k, "xi": float(xi[k])},
        )
    if not np.all(np.diff(x) > 0):
        k = int(np.argmin(np.diff(x)))
        raise NumericalAbort(
            f"invert_y0 produced a non-increasing map near node {k}",
            {"node": k},
        )
    return x


def transform_with_map(datum: EulerDatum, grid: Grid) -> TransformedState:
    """Initial transformed state, on the characteristic map y0 of the datum.

    Each kink x_k of the datum inside the window becomes the label
    xi_k = F(x_k) of the state's kinks.  A node on a label (within
    grid.KINK_SNAP of it) takes for W and Z the mean of the two one-sided
    angles at x_k.
    """
    table = _density_table(datum, grid)
    y0 = _invert(table, grid)
    data = np.stack((
        datum.u0(y0),
        datum.v0(y0),
        2.0 * np.arctan(datum.du0(y0)),
        2.0 * np.arctan(datum.dv0(y0)),
        np.ones(grid.n),
        y0,
    ))
    kinks = []
    for x_k in datum.kinks:
        # |F(x)| >= |x|, so a kink outside the table lies outside the grid.
        if not table.x[0] < x_k < table.x[-1]:
            continue
        xi_k = float(table.value(x_k))
        position = kink_positions((xi_k,), grid)
        if not position:
            continue
        kinks.append(xi_k)
        if position[0].is_integer():
            sides = np.array([np.nextafter(x_k, -np.inf),
                              np.nextafter(x_k, np.inf)])
            data[2:4, int(position[0])] = [np.arctan(slope(sides)).sum()
                                           for slope in (datum.du0, datum.dv0)]
    return TransformedState(0.0, grid, data, tuple(sorted(set(kinks))))
