"""Wave-breaking detection, eight-way classification, and local structure
checks on the angle level sets.

A breaking configuration is a crossing of W or Z through an odd
multiple of pi.  Because evolution keeps the angles unwrapped, both the
+pi and -pi levels are physical and both are searched.  Detected points
are classified by four predicates (which angle sits on the level, and
whether its first derivative vanishes there) into eight generic cases;
each case predicts a specific pattern of vanishing xi-derivatives of
(y, U, V) at the point together with the first nonvanishing
coefficient, and those predictions are checked numerically from the
analytic first xi-derivatives of (y, U, V) (sources.xi_derivatives)
differentiated by finite differences.  Derivatives beyond the FD
ceiling (seventh and ninth order of y for the doubly-degenerate cases)
are measured instead by least-squares amplitude fits of the known local
power, which is the numerically stable route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .errors import AnalysisError, ContractError
from .grid import Grid, fd_derivative, prefix_integral
from .initial import TransformedState
from .reconstruct import EulerField, sample_at
from .sources import (LEVELS, TOL_PI, TOL_ZERO_REL, level_distance,
                      slope_factors, xi_derivatives)

__all__ = [
    "SingularPoint",
    "CancellationCheck",
    "CancellationReport",
    "find_crossings",
    "classify",
    "verify_cancellations",
    "fit_exponent",
    "synthetic_case_state",
]


@dataclass(frozen=True)
class SingularPoint:
    t: float
    xi_star: float
    x_star: float
    curve: str  # "W", "Z", or "both"
    tangential: bool
    w_value: float
    z_value: float
    w_xi: float
    z_xi: float
    case_label: int | None = None
    degenerate: bool = False
    margins: dict = field(default_factory=dict)
    fitted_exponent_u: float | None = None
    fitted_exponent_v: float | None = None


@dataclass(frozen=True)
class CancellationCheck:
    name: str
    kind: str  # "vanish" or "leading"
    claimed: float
    measured: float
    scale: float
    rel_err: float


@dataclass(frozen=True)
class CancellationReport:
    case_label: int
    complete: bool
    checks: tuple[CancellationCheck, ...]


def _interp(arr: np.ndarray, grid: Grid, xi: float, lo: int = 0) -> float:
    """arr at xi, linear between nodes; arr holds the nodes lo, lo+1, ..."""
    pos = (xi - grid.xi_min) / grid.dx
    i = int(np.clip(np.floor(pos), 0, grid.n - 2))
    frac = pos - i
    a, b = arr[i - lo], arr[i + 1 - lo]
    return float(a + frac * (b - a))


def _level_events(s: np.ndarray, grid: Grid, tol_pi: float):
    """Crossing and touching locations of the zero level of s."""
    nodes = grid.nodes
    events = []
    prod = s[:-1] * s[1:]
    for k in np.flatnonzero(prod < 0):
        frac = s[k] / (s[k] - s[k + 1])
        events.append((float(nodes[k] + frac * grid.dx), False))
    for k in np.flatnonzero(s == 0.0):
        left = s[k - 1] if k > 0 else 0.0
        right = s[k + 1] if k + 1 < s.size else 0.0
        tangential = left * right > 0
        events.append((float(nodes[k]), tangential))
    mag = np.abs(s)
    interior = np.arange(1, s.size - 1)
    touch = interior[
        (mag[interior] <= tol_pi)
        & (mag[interior] <= mag[interior - 1])
        & (mag[interior] < mag[interior + 1])
        & (s[interior - 1] * s[interior] > 0)
        & (s[interior] * s[interior + 1] > 0)
    ]
    for k in touch:
        d2 = s[k + 1] - 2.0 * s[k] + s[k - 1]
        delta = 0.0
        if d2 != 0.0:
            delta = float(np.clip(0.5 * (s[k - 1] - s[k + 1]) / d2, -0.5, 0.5))
        events.append((float(nodes[k] + delta * grid.dx), True))
    return events


def find_crossings(state: TransformedState,
                   tol_pi: float = TOL_PI) -> list[SingularPoint]:
    """Locate all level events of W and Z at +-pi, sub-cell accurate."""
    grid = state.grid
    pair = state.data[2:4]
    slope = fd_derivative(pair, grid, 1, state.kinks)
    raw = []  # (xi, which, tangential)
    for which, angle in zip("WZ", pair):
        for level in LEVELS:
            for xi, tang in _level_events(angle - level, grid, tol_pi):
                raw.append((xi, which, tang))
    raw.sort()
    merged = []
    for xi, which, tang in raw:
        if merged and abs(xi - merged[-1][0]) <= 0.5 * grid.dx \
                and merged[-1][1] != which:
            prev = merged.pop()
            merged.append((0.5 * (xi + prev[0]), "both", tang or prev[2]))
        else:
            merged.append((xi, which, tang))
    points = []
    for xi, which, tang in merged:
        points.append(SingularPoint(
            t=state.t,
            xi_star=xi,
            x_star=_interp(state.y, grid, xi),
            curve=which,
            tangential=tang,
            w_value=_interp(pair[0], grid, xi),
            z_value=_interp(pair[1], grid, xi),
            w_xi=_interp(slope[0], grid, xi),
            z_xi=_interp(slope[1], grid, xi),
        ))
    return points


# Case label from (on the W level, on the Z level, W_xi vanishes on its
# level, Z_xi vanishes on its level); a point on neither level has none.
_CASE_OF = {
    (True, False, False, False): 1,
    (False, True, False, False): 2,
    (True, True, False, False): 3,
    (True, False, True, False): 4,
    (False, True, False, True): 5,
    (True, True, True, False): 6,
    (True, True, False, True): 7,
    (True, True, True, True): 8,
}


def _window(grid: Grid, xi: float, half_nodes: int) -> slice:
    i = int(round((xi - grid.xi_min) / grid.dx))
    return slice(max(i - half_nodes, 0), min(i + half_nodes + 1, grid.n))


# A point's derivatives are taken on a patch: its window and 12 more
# nodes a side, clipped to the grid.  A value more than 3 nodes (the
# widest stencil's reach) from an end cut inside the grid reads the same
# samples with the same stencil as on the full grid, so it is the
# full-row value bit for bit; 13 nodes are the fewest that fd_derivative
# takes at order 4.
_PATCH_MARGIN = 12


def _patch_derivatives(rows: np.ndarray, grid: Grid, xi: float,
                       window_nodes: int, orders, kinks=()):
    """(patch, win, derivs): the patch around xi, its window as a slice
    of it, and fd_derivative of rows on the patch alone, cut at the kink
    labels kinks, for each order."""
    win = _window(grid, xi, window_nodes)
    patch = _window(grid, xi, window_nodes + _PATCH_MARGIN)
    lo, n = patch.start, patch.stop - patch.start
    sub = Grid(grid.xi_min + lo * grid.dx, grid.xi_min + (lo + n - 1) * grid.dx,
               n, grid.dx)
    return patch, slice(win.start - lo, win.stop - lo), [
        fd_derivative(rows[..., patch], sub, k, kinks) for k in orders]


def classify(point: SingularPoint, state: TransformedState,
             tol_pi: float = TOL_PI, tol_zero_rel: float = TOL_ZERO_REL,
             window_nodes: int = 25) -> SingularPoint:
    """Fill in the case label from the four level/derivative predicates.

    The angle values and slopes at the point are the ones find_crossings
    set.  Derivative vanishing is judged against the local scale of the
    same derivative, since the predicates are exact statements and any
    discrete surrogate needs a reference magnitude.  Pairs below are
    (W, Z).
    """
    grid = state.grid
    patch, win, (d1, d2) = _patch_derivatives(
        state.data[2:4], grid, point.xi_star, window_nodes, (1, 2),
        state.kinks)
    slope = np.array([point.w_xi, point.z_xi])
    curvature = np.array([_interp(row, grid, point.xi_star, patch.start)
                          for row in d2])
    tol1, tol2 = (tol_zero_rel * np.maximum(np.max(np.abs(d[:, win]), axis=1),
                                            1e-300) for d in (d1, d2))
    dist = level_distance(np.array([point.w_value, point.z_value]))
    on_level = dist <= tol_pi
    flat = on_level & (np.abs(slope) <= tol1)
    label = _CASE_OF.get((*on_level.tolist(), *flat.tolist()))
    if label is None:
        raise AnalysisError(
            f"point at xi={point.xi_star:.6g} sits on neither level "
            f"(|W-pi| dist {dist[0]:.3e}, |Z-pi| dist {dist[1]:.3e})")
    degenerate = bool(np.any(flat & (np.abs(curvature) <= tol2)))
    margins = {
        "w_level_dist": dist[0], "z_level_dist": dist[1], "tol_pi": tol_pi,
        "w_xi": slope[0], "z_xi": slope[1], "tol_w_xi": tol1[0],
        "tol_z_xi": tol1[1], "w_xixi": curvature[0], "z_xixi": curvature[1],
        "tol_w_xixi": tol2[0], "tol_z_xixi": tol2[1],
    }
    return replace(point, case_label=label, degenerate=degenerate,
                   margins=margins)


def _amplitude_fit(f: np.ndarray, grid: Grid, xi: float, power: int,
                   r_min: float, r_max: float) -> float:
    """Signed leading coefficient A of f ~ A d^p + B d^(p+2), d = xi-xi*.

    Two-term linear least squares; the second basis function absorbs
    the first smooth correction so the window can stay wide enough to
    be FD-noise free.
    """
    d = grid.nodes - xi
    mask = (np.abs(d) >= r_min) & (np.abs(d) <= r_max)
    if int(np.sum(mask & (d > 0))) < 4 or int(np.sum(mask & (d < 0))) < 4:
        raise AnalysisError(
            f"amplitude fit window too thin around xi={xi:.6g}")
    dd = d[mask]
    design = np.stack([dd ** power, dd ** (power + 2)], axis=1)
    coef, *_ = np.linalg.lstsq(design, f[mask], rcond=None)
    return float(coef[0])


# Per-case structure: which xi-derivative orders of (y, U, V) vanish and
# the first nonvanishing coefficient of each, as a formula in the local
# data L (q, w1 = W_xi, w2 = W_xixi, z1, z2, cw = cos^2(W/2), cz, sinW,
# sinZ).  A row holds vanish groups (components, highest order), where a
# group of two components interleaves them order by order, and leading
# entries (component, derivative order, method, claimed value).  "fd"
# reads the FD stack, which reaches order 5; "fit" measures orders past
# it by an amplitude fit of the known local power, and leaves the row
# incomplete because the vanishing orders below it go unchecked.
_CASE_ROWS = {
    1: ((("y", 2), ("U", 1), ("V", 2)),
        (("y", 3, "fd", lambda L: 0.5 * L.q * L.w1 * L.w1 * L.cz),
         ("U", 2, "fd", lambda L: -0.5 * L.q * L.w1 * L.cz),
         ("V", 3, "fd", lambda L: 0.25 * L.q * L.w1 * L.w1 * L.sinZ))),
    3: ((("y", 4), ("UV", 3)),
        (("y", 5, "fd", lambda L: 1.5 * L.q * L.w1 * L.w1 * L.z1 * L.z1),
         ("U", 4, "fd", lambda L: -0.75 * L.q * L.w1 * L.z1 * L.z1),
         ("V", 4, "fd", lambda L: -0.75 * L.q * L.w1 * L.w1 * L.z1))),
    4: ((("y", 4), ("U", 2), ("V", 4)),
        (("y", 5, "fd", lambda L: 1.5 * L.q * L.w2 * L.w2 * L.cz),
         ("U", 3, "fd", lambda L: -0.5 * L.q * L.w2 * L.cz),
         ("V", 5, "fd", lambda L: 0.75 * L.q * L.w2 * L.w2 * L.sinZ))),
    6: ((("y", 5), ("U", 4), ("V", 5)),
        (("U", 5, "fd", lambda L: -1.5 * L.q * L.w2 * L.z1 * L.z1),
         ("y", 7, "fit", lambda L: 11.25 * L.q * L.w2 * L.w2 * L.z1 * L.z1),
         ("V", 6, "fit", lambda L: -3.75 * L.q * L.w2 * L.w2 * L.z1))),
    8: ((("y", 5), ("UV", 5)),
        (("y", 9, "fit", lambda L: 157.5 * L.q * L.w2 * L.w2 * L.z2 * L.z2),
         ("U", 7, "fit", lambda L: -11.25 * L.q * L.w2 * L.z2 * L.z2),
         ("V", 7, "fit", lambda L: -11.25 * L.q * L.w2 * L.w2 * L.z2))),
}
# Cases 2, 5 and 7 are the rows of 1, 4 and 6 with U <-> V and W <-> Z
# exchanged, applied to component names and local-data names alike.
_MIRROR_OF = {2: 1, 5: 4, 7: 6}
_SWAP = str.maketrans("UVWZwz", "VUZWzw")


def verify_cancellations(point: SingularPoint, state: TransformedState,
                         window_nodes: int = 40,
                         fit_r_min_cells: int = 3,
                         fit_r_max: float = 0.25) -> CancellationReport:
    if point.case_label is None:
        raise ContractError("classify the point before verifying cancellations")
    label = point.case_label
    row = _CASE_ROWS.get(_MIRROR_OF.get(label, label))
    if row is None:
        raise ContractError(f"case label {label} outside 1..8")
    grid = state.grid
    xi = point.xi_star
    i_star = int(round((xi - grid.xi_min) / grid.dx))
    if i_star - window_nodes < 0 or i_star + window_nodes >= grid.n:
        return CancellationReport(case_label=label, complete=False, checks=())

    slopes = slope_factors(state)
    analytic = dict(zip("yUV", xi_derivatives(state, slopes)))
    patch, win, fd = _patch_derivatives(np.stack(list(analytic.values())),
                                        grid, xi, window_nodes, (1, 2, 3, 4),
                                        state.kinks)
    # derivs[name][k] is the (k+1)-th xi-derivative on the patch, analytic
    # for k = 0; the amplitude fits read the analytic rows whole.
    derivs = {name: [row[patch]] + [d[j] for d in fd]
              for j, (name, row) in enumerate(analytic.items())}

    # sin(angle) = 2 T c, formed at the nodes before any interpolation.
    T, c = slopes[0][:, patch], slopes[1][:, patch]
    (cw, cz), (sinW, sinZ) = c, (2.0 * T) * c
    _, _, ((w1, z1), (w2, z2)) = _patch_derivatives(
        state.data[2:4], grid, xi, window_nodes, (1, 2), state.kinks)
    local = {"q": state.q[patch], "cw": cw, "cz": cz,
             "sinW": sinW, "sinZ": sinZ,
             "w1": w1, "z1": z1, "w2": w2, "z2": z2}
    swap = _SWAP if label in _MIRROR_OF else {}
    L = SimpleNamespace(**{k.translate(swap): _interp(v, grid, xi, patch.start)
                           for k, v in local.items()})
    vanish_groups, leading = row

    checks: list[CancellationCheck] = []
    for names, top in vanish_groups:
        for order in range(1, top + 1):
            for name in names.translate(swap):
                arr = derivs[name][order - 1]
                measured = _interp(arr, grid, xi, patch.start)
                ref = float(np.max(np.abs(arr[win])))
                checks.append(CancellationCheck(
                    name=f"d{order}{name}_vanishes", kind="vanish",
                    claimed=0.0, measured=measured, scale=ref,
                    rel_err=abs(measured) / max(ref, 1e-300)))
    for name, order, method, formula in leading:
        name = name.translate(swap)
        claimed = formula(L)
        if method == "fd":
            measured = _interp(derivs[name][order - 1], grid, xi, patch.start)
        else:
            amp = _amplitude_fit(analytic[name], grid, xi, order - 1,
                                 fit_r_min_cells * grid.dx, fit_r_max)
            measured = math.factorial(order - 1) * amp
        checks.append(CancellationCheck(
            name=f"d{order}{name}_leading", kind="leading",
            claimed=claimed, measured=measured, scale=abs(claimed),
            rel_err=abs(measured - claimed) / max(abs(claimed), 1e-300)))
    complete = all(method == "fd" for _, _, method, _ in leading)
    return CancellationReport(case_label=label, complete=complete,
                              checks=tuple(checks))


def fit_exponent(field: EulerField, x_star: float, side_window: float,
                 min_gap: float, component: str = "u") -> tuple[float, float]:
    """Two-sided log-log slope of |f - f(x_star)| against |x - x_star|."""
    f = getattr(field, component)
    x = field.x
    u_star, v_star = sample_at(field, x_star)
    f_star = u_star if component == "u" else v_star
    slopes, qualities = [], []
    for side in (-1.0, 1.0):
        d = side * (x - x_star)
        mask = (d > min_gap) & (d <= side_window)
        df = np.abs(f - f_star)[mask]
        dist = d[mask]
        keep = df > 0
        df, dist = df[keep], dist[keep]
        if df.size < 8:
            raise AnalysisError(
                f"only {df.size} usable samples on side {side:+.0f} "
                f"of x={x_star:.6g}; need 8")
        lx = np.log(dist)
        ly = np.log(df)
        slope, intercept = np.polyfit(lx, ly, 1)
        resid = ly - (slope * lx + intercept)
        ss_tot = float(np.sum((ly - ly.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
        slopes.append(float(slope))
        qualities.append(r2)
    return 0.5 * (slopes[0] + slopes[1]), 0.5 * (qualities[0] + qualities[1])


def synthetic_case_state(case_label: int, grid: Grid) -> TransformedState:
    """Hand-built state putting a level event of the requested case at
    the node nearest xi = 0.

    Local profiles are exact low-order polynomials times a flat-top
    cutoff, so the parities the case assumes hold to rounding and the
    vanishing checks are not polluted by profile curvature.  The U, V
    and y fields are integrated from the first-derivative identities,
    making the analytic and FD routes mutually consistent.  These states are
    for local analysis; they do not decay like evolved states and are
    not meant to be time stepped.
    """
    xi = grid.nodes - grid.nodes[int(np.argmin(np.abs(grid.nodes)))]
    bump = np.exp(-xi**2)
    flat = np.exp(-((xi / 2.5) ** 8))
    pi = np.pi
    profiles = {  # case label -> (W, Z)
        1: lambda: (flat * (pi + 0.8 * xi), 0.4 * bump),
        2: lambda: (0.4 * bump, flat * (pi - 0.6 * xi)),
        3: lambda: (flat * (pi + 0.7 * xi), flat * (pi - 0.5 * xi)),
        4: lambda: (pi * bump, 0.4 * bump),
        5: lambda: (0.4 * bump, pi * bump),
        6: lambda: (pi * bump, flat * (pi + 0.6 * xi)),
        7: lambda: (flat * (pi + 0.6 * xi), pi * bump),
        8: lambda: (pi * bump, pi * np.exp(-1.3 * xi**2)),
    }
    if case_label not in profiles:
        raise ContractError(f"case label must be 1..8, got {case_label}")
    W, Z = profiles[case_label]()
    q = 1.0 + 0.05 * bump
    zero = np.zeros(grid.n)
    shell = TransformedState(0.0, grid, np.stack((zero, zero, W, Z, q, zero)))
    y_xi, u_xi, v_xi = xi_derivatives(shell)
    U = 0.1 + prefix_integral(u_xi, grid)
    V = 0.15 + prefix_integral(v_xi, grid)
    y = grid.xi_min + prefix_integral(y_xi, grid)
    return shell.with_fields(U=U, V=V, y=y)
