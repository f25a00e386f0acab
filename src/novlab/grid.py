"""Uniform grids, trapezoid quadrature, prefix integrals, finite differences.

Every field in this package lives on a uniform grid over a truncated
line.  Quadrature is the trapezoid rule, which is consistent with the
piecewise linear reading of sampled fields and is spectrally accurate
for smooth integrands that decay at the window ends.  Derivatives are
centred finite differences of fourth order in the interior; near the
boundary the same-width stencil slides one-sided, which keeps every row
exact on polynomials up to the stencil degree.  Kinks of the data cut
the line into smooth pieces, and the stencils slide one-sided at their
ends too.  One builder, stencil_table, gives these stencils to the
derivative's nodes and to the kernel's cells, each row the Lagrange
weights of its functional (an integral over a cell or part of one, a
derivative at a node) on the nodes it reads; a node on a kink, which
belongs to neither piece, takes the mean of the two sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ContractError

__all__ = [
    "MAX_NODES",
    "Grid",
    "make_grid",
    "integrate",
    "prefix_integral",
    "fd_derivative",
    "kink_positions",
    "stencil_table",
]


# The most nodes a grid may have: at 2**20 a (6, n) state is 50 MB and an
# RK4 step holds a dozen such arrays, while far past it numpy cannot even
# allocate the nodes and fails with a bare ValueError.
MAX_NODES = 2**20


@dataclass(frozen=True)
class Grid:
    xi_min: float
    xi_max: float
    n: int
    dx: float

    @property
    def nodes(self) -> np.ndarray:
        return self.xi_min + self.dx * np.arange(self.n)


def make_grid(xi_min: float, xi_max: float, n: int) -> Grid:
    if not (np.isfinite(xi_min) and np.isfinite(xi_max)):
        raise ConfigError("grid endpoints must be finite")
    if not xi_max > xi_min:
        raise ConfigError(f"need xi_max > xi_min, got [{xi_min}, {xi_max}]")
    n = int(n)
    if n < 3:
        raise ConfigError(f"need at least 3 nodes, got {n}")
    if n > MAX_NODES:
        raise ConfigError(f"need at most {MAX_NODES} nodes, got {n}")
    dx = (xi_max - xi_min) / (n - 1)
    # fd_derivative divides by up to dx**4.
    with np.errstate(over="ignore"):
        if not 0.0 < np.float64(dx) ** 4 < np.inf:
            raise ConfigError(f"grid spacing {dx} has no finite nonzero "
                              "4th power")
    return Grid(float(xi_min), float(xi_max), n, dx)


# A kink within this fraction of dx of a node lies on that node.
KINK_SNAP = 1e-9


def kink_positions(kinks, grid: Grid) -> tuple[float, ...]:
    """The kinks xi_k strictly inside the grid, in units of dx from
    xi_min, sorted and distinct; one within KINK_SNAP of a node is
    rounded onto it, so it is an integer there."""
    positions = set()
    for k in kinks:
        s = (float(k) - grid.xi_min) / grid.dx
        if not math.isfinite(s):
            raise ContractError(f"kink label {k!r} is not finite")
        if abs(s - round(s)) <= KINK_SNAP:
            s = float(round(s))
        if 0.0 < s < grid.n - 1:
            positions.add(s)
    return tuple(sorted(positions))


def _pieces(n: int, positions):
    # The smooth pieces [lo, hi] of a line of n nodes cut at the kink
    # positions, each with its first and last node a and b; a node on a
    # kink belongs to neither side.  A kink that would leave the piece
    # before it no node is dropped.
    pieces, lo = [], 0.0
    for hi in (*positions, float(n - 1)):
        a = math.ceil(lo) + (0.0 < lo and lo.is_integer())
        b = math.floor(hi) - (hi < n - 1 and hi.is_integer())
        if a <= b:
            pieces.append((lo, hi, a, b))
            lo = hi
    return pieces


def _as_samples(samples, grid: Grid, max_ndim: int = 1) -> np.ndarray:
    """samples as floats: shape (n,), or (k, n) when max_ndim is 2."""
    arr = np.asarray(samples, dtype=float)
    if not 1 <= arr.ndim <= max_ndim or arr.shape[-1] != grid.n:
        raise ContractError(f"expected {grid.n} samples per row, got shape "
                            f"{arr.shape}")
    return arr


def prefix_integral(samples, grid: Grid) -> np.ndarray:
    """Running trapezoid integral from xi_min; entry 0 is exactly 0."""
    arr = _as_samples(samples, grid)
    out = np.empty(grid.n)
    out[0] = 0.0
    cells = (0.5 * grid.dx) * (arr[:-1] + arr[1:])
    cells.cumsum(out=out[1:])
    return out


def integrate(samples, grid: Grid) -> float:
    # Defined as the last prefix entry so the two routes agree exactly,
    # same summation order and all.
    return float(prefix_integral(samples, grid)[-1])


def _lagrange_weights(nodes, x0: float, x1: float, order: int) -> np.ndarray:
    """The weights of the values at nodes that give, for the polynomial
    through them, its integral over [x0, x1] (order 0) or its order-th
    derivative at x0 = x1, all in units of dx.  Offsets from the middle
    of [x0, x1] keep the Lagrange products small."""
    mid = 0.5 * (x0 + x1)
    x = np.asarray(nodes, dtype=float) - mid
    weights = np.empty(x.size)
    for k in range(x.size):
        others = np.delete(x, k)
        # np.poly of no roots (a one-node part) is the scalar 1.
        basis = np.atleast_1d(np.poly(others)) / np.prod(x[k] - others)
        if order:
            weights[k] = np.polyval(np.polyder(basis, order), 0.0)
        else:
            basis = np.polyint(basis)
            weights[k] = (np.polyval(basis, x1 - mid)
                          - np.polyval(basis, x0 - mid))
    return weights


@lru_cache(maxsize=48)
def stencil_table(n: int, positions: tuple[float, ...], order: int,
                  first: int, width: int):
    """The stencils near the ends of the smooth pieces of a line of n
    nodes cut at the kink positions (units of dx from node 0).

    A target t is the cell [t, t+1] of the integral (order 0) or the node
    t of the order-th derivative, its centred stencil the width nodes
    from t + first.  A target whose centred stencil would leave its
    piece, or that holds a kink, splits at the kinks into parts; a part
    [x0, x1] takes the width nodes of each piece that holds it, nearest
    to centred (all of them in a shorter piece), with the Lagrange
    weights of the functional on them.  A node on a kink, which both
    pieces hold and neither reads, takes the mean of the two.  Returns
    the targets, an (R, w) array of node windows and their weights; a
    row narrower than w repeats its first node at zero weight.
    """
    span = 0 if order else 1
    pieces = _pieces(n, positions)
    cuts = [hi for _, hi, _, _ in pieces[:-1]]
    near = {t for lo, hi, _, _ in pieces for x in (lo, hi)
            for t in range(math.floor(x) - width, math.ceil(x) + width)}
    rows = []
    for t in sorted(t for t in near if 0 <= t < n - span):
        ends = [t, *(p for p in cuts if t < p < t + span), t + span]
        parts = []
        for x0, x1 in zip(ends, ends[1:]):
            held = [(a, b) for lo, hi, a, b in pieces if lo <= x0 and x1 <= hi]
            for a, b in held:
                start = max(min(t + first, b + 1 - width), a)
                parts.append((range(start, min(start + width, b + 1)), x0, x1,
                              len(held)))
        if len(parts) > 1 or parts[0][0] != range(t + first,
                                                   t + first + width):
            # Parts and their pieces run left to right, so the nodes come
            # sorted and distinct.
            rows.append((t, [k for nodes, *_ in parts for k in nodes],
                         [w for nodes, x0, x1, share in parts
                          for w in _lagrange_weights(nodes, x0, x1, order)
                          / share]))
    widest = max(len(nodes) for _, nodes, _ in rows)
    targets = np.array([t for t, _, _ in rows])
    windows = np.array([nodes + nodes[:1] * (widest - len(nodes))
                        for _, nodes, _ in rows], dtype=np.intp)
    weights = np.array([w + [0.0] * (widest - len(w)) for _, _, w in rows])
    for table in (targets, windows, weights):
        table.flags.writeable = False
    return targets, windows, weights


# Stencil half widths: 5 points for orders 1 and 2, 7 points for 3 and 4.
_HALF_WIDTH = {1: 2, 2: 2, 3: 3, 4: 3}


@lru_cache(maxsize=None)
def _centred(order: int) -> np.ndarray:
    # The centred row of the order-th derivative, shared read-only.
    w = _HALF_WIDTH[order]
    row = _lagrange_weights(range(-w, w + 1), 0.0, 0.0, order)
    row.flags.writeable = False
    return row


def fd_derivative(samples, grid: Grid, order: int, kinks=()) -> np.ndarray:
    """order-th xi-derivative of samples, shape (n,) or a (k, n) stack.

    A stack is differentiated row by row, each row bit for bit its 1-D
    result.  The nodes near the grid ends and the kink labels kinks take
    the stencils of stencil_table: one-sided in their piece, or on a kink
    (within KINK_SNAP of it) the mean of the two sides.
    """
    if order not in _HALF_WIDTH:
        raise ContractError(f"derivative order must be 1..4, got {order}")
    w = _HALF_WIDTH[order]
    if grid.n < 2 * order + 5:
        raise ContractError(
            f"grid too small for order-{order} derivative: n={grid.n}")
    arr = _as_samples(samples, grid, max_ndim=2)
    out = np.empty(arr.shape)
    centre = _centred(order)
    for row, res in zip(arr.reshape(-1, grid.n), out.reshape(-1, grid.n)):
        # correlate(row, centre) at full stencils covers nodes w .. n-1-w
        res[w:grid.n - w] = np.correlate(row, centre, mode="valid")
    at, windows, weights = stencil_table(
        grid.n, kink_positions(kinks, grid), order, -w, 2 * w + 1)
    # take lays each row's windows out contiguously, so that every dot
    # sums in the order of the 1-D case.
    out[..., at] = np.vecdot(np.take(arr, windows, axis=-1), weights)
    out /= grid.dx ** order
    return out
