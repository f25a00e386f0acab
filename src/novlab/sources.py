"""Nonlocal source fields under the state-dependent exponential kernel.

In Eulerian variables the two-component Novikov system reads

    u_t + u v u_x = -dx K*(u^2 v + u u_x v_x + v u_x^2/2) - K*(u_x^2 v_x)/2

with K = exp(-|x|)/2, and the same with u <-> v.  With the slopes
T = tan(W/2) = u_x and tan(Z/2) = v_x, c = cos^2(angle/2) = 1/(1 + T^2)
and dx = y_xi dxi, y_xi = q c_W c_Z, each kernel integrand the code
forms is y_xi times an Eulerian density: y_xi (f1/2 -+ f2/4), with
f1 = u^2 v + u u_x v_x + v u_x^2/2 and f2 = u_x^2 v_x, and the same with
u <-> v.  The rates read W and Z only through T and c.  So do the
conserved and measure densities: each is y_xi times its Eulerian
density in (u, v, u_x, v_x).

The kernel between two nodes is exp(-|G[i] - G[j]|), with G the prefix
integral of y_xi.  Convolutions against it split into a forward and a
backward half; exp_convolve scans both halves of the integrand pairs the
rates read as one (2, ..., n) stack, in one O(n) pass over the line, or
where G spans more than _BLOCK_SPAN, one pass of the same scan body per
block, with the carries across block ends added after the scans.  G and
both halves take one quadrature, the 8-point cell rule: the integral
over [xi_j, xi_j+1] of the degree-7 polynomial through the samples at
xi_j-3 .. xi_j+4, dx/120960 (68323 (r_j + r_j+1) - 9531 (r_j-1 +
r_j+2) + 1879 (r_j-2 + r_j+3) - 191 (r_j-3 + r_j+4)).  In the
characteristic variables the solution stays smooth in xi through
gradient blow-up; the one exception is a kink of the datum
(the peakon crest), which is a characteristic and keeps its label xi_k
(TransformedState.kinks).  So the line splits into smooth pieces at the
grid ends and the kinks, and no stencil reaches across a piece's end:
the cells near one, and those a kink splits, take the one-sided
stencils of grid.stencil_table, one table per grid and kinks.  The rule
is eighth order on smooth data, through breaking and across kinks
alike.  A quadratic-time double loop with the same rule serves as the
oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import TOL_PI, TOL_ZERO_REL
from .errors import ContractError, NumericalAbort
from .grid import Grid, kink_positions, stencil_table
from .initial import TransformedState

__all__ = [
    "LEVELS",
    "TOL_PI",
    "TOL_ZERO_REL",
    "slope_factors",
    "level_distance",
    "xi_derivatives",
    "kernel_accumulator",
    "exp_convolve",
    "exp_convolve_bruteforce",
    "assemble_sources",
    "kink_weights",
]

# Bound on G[e] - G[s] past the first cell of a block [s, e], set by
# overflow alone: the forward sum scales by exp(G - G[lo]), about e^100
# (2.7e43).  Every shipped config's G spans less: one block, the line.
_BLOCK_SPAN = 100.0


def _slopes(state: TransformedState, out=None) -> np.ndarray:
    # The package's one tan call; into out, or a fresh (2, n) array.
    T = np.multiply(0.5, state.data[2:4], out=out)
    return np.tan(T, out=T)


def slope_factors(state: TransformedState, out=None):
    """The slopes T = tan(angle/2) (u_x in row W, v_x in row Z) and
    c = cos^2(angle/2) = 1/(1 + T^2), each a (2, n) pair whose reversal
    pair[::-1] is the swap.  At the double nearest +-pi, T is about
    1.6e16, so T^2 stays finite.  out, a pair of (2, n) arrays,
    receives (T, c) if given.
    """
    T, c = (None, None) if out is None else out
    T = _slopes(state, T)
    c = np.square(T, out=c)
    c += 1.0
    return T, np.divide(1.0, c, out=c)


# The 8-point cell rule: the integral over [xi_j, xi_j+1] of the degree-7
# polynomial through r at xi_j-3 .. xi_j+4, in units of dx.
_CELL_RULE = np.array([-191.0, 1879.0, -9531.0, 68323.0, 68323.0, -9531.0,
                       1879.0, -191.0]) / 120960.0
# Every stencil offset of the quadrature follows from the rule's length:
# the centred stencil of the cell [j, j+1] is the nodes j + 1 - _HALF ..
# j + _HALF, and _HALF zeros pad either side of a correlated row.
_TAPS = len(_CELL_RULE)
_HALF = _TAPS // 2


@lru_cache(maxsize=8)
def _cell_weights(dx: float) -> np.ndarray:
    # _CELL_RULE * dx, formed once per spacing and shared read-only.
    weights = _CELL_RULE * dx
    weights.flags.writeable = False
    return weights


def _part_weights(nodes, a: float, b: float) -> np.ndarray:
    # The integral over [a, b] of the polynomial through the nodes, as
    # weights of the values there, all in units of dx.  Offsets from the
    # middle of [a, b] keep the Lagrange products small.
    mid = 0.5 * (a + b)
    x = np.asarray(nodes, dtype=float) - mid
    weights = np.empty(x.size)
    for k in range(x.size):
        others = np.delete(x, k)
        # np.poly of no roots (a one-node part) is the scalar 1.
        basis = np.polyint(np.atleast_1d(np.poly(others))
                           / np.prod(x[k] - others))
        weights[k] = np.polyval(basis, b - mid) - np.polyval(basis, a - mid)
    return weights


@lru_cache(maxsize=16)
def _table(grid: Grid, kinks: tuple[float, ...]):
    # The boundary cells of the grid cut at the kink labels kinks, their
    # weights in units of dx and also times dx, as G takes them.  Every
    # other cell takes the centred rule.
    cells, windows, weights = stencil_table(
        grid.n, kink_positions(kinks, grid), 1, 1 - _HALF, _TAPS,
        _part_weights)
    scaled = weights * grid.dx
    scaled.flags.writeable = False
    return cells, windows, weights, scaled


@lru_cache(maxsize=8)
def kink_weights(grid: Grid, kinks: tuple[float, ...]):
    """The nodes near the kinks and what the piecewise 8-point composite
    rule adds to the trapezoid's node weights there, as (nodes, extra);
    both are empty without kinks.  The nodes are those whose composite
    weight the kinks move; in the interior of a piece the composite
    weight is dx, the trapezoid's.
    """
    def composite(table):
        cells, windows, weights, _ = table
        centred = np.ones(grid.n - 1)
        centred[cells] = 0.0
        # The rule is symmetric, so the convolution lays each centred
        # cell's weights onto its nodes j + 1 - _HALF .. j + _HALF.
        w = np.convolve(centred, _CELL_RULE)[_HALF - 1:grid.n + _HALF - 1]
        np.add.at(w, windows, weights)
        return w * grid.dx

    with_kinks = composite(_table(grid, kinks))
    nodes = np.flatnonzero(with_kinks != composite(_table(grid, ())))
    trapezoid = np.full(nodes.size, grid.dx)
    trapezoid[(nodes == 0) | (nodes == grid.n - 1)] *= 0.5
    extra = with_kinks[nodes] - trapezoid
    for table in (nodes, extra):
        table.flags.writeable = False
    return nodes, extra


# The breaking levels: W or Z at +pi or -pi.  Angles stay unwrapped, so
# both are physical.
LEVELS = (np.pi, -np.pi)


def level_distance(angle):
    """Distance of angle (a scalar or an array) to the nearest level."""
    return np.min([np.abs(angle - level) for level in LEVELS], axis=0)


def _y_xi(q, cw, cz, out=None):
    # Grouping cw*cz first keeps y_xi, and with it the kernel potential,
    # bitwise invariant under the (u,W) <-> (v,Z) swap; IEEE
    # multiplication commutes but does not associate.
    out = np.multiply(cw, cz, out=out)
    return np.multiply(q, out, out=out)


def xi_derivatives(state: TransformedState, slopes=None):
    """Analytic first xi-derivatives (y_xi, U_xi, V_xi) of the state:

        y_xi = q cos^2(W/2) cos^2(Z/2),  U_xi = y_xi u_x,  V_xi = y_xi v_x

    slopes is slope_factors(state), evaluated here if not given.
    """
    T, c = slopes or slope_factors(state)
    y_xi = _y_xi(state.q, *c)
    return (y_xi, *(y_xi * T))


def kernel_accumulator(y_xi: np.ndarray, grid: Grid, kinks=()) -> np.ndarray:
    """G, the prefix integral of the row r = y_xi, nondecreasing in Omega.

    Each cell takes the 8-point rule dx/120960 (68323 (r_j + r_j+1) -
    9531 (r_j-1 + r_j+2) + 1879 (r_j-2 + r_j+3) - 191 (r_j-3 + r_j+4)),
    the integral of the degree-7 polynomial through the eight nodes
    around it.  The grid ends and the kink labels kinks cut the line into
    smooth pieces: a cell whose stencil would leave its piece takes a
    one-sided one, and a cell with a kink in it is integrated in two
    parts, each by the polynomial of its own side.  A cell where the rule
    would go negative keeps the trapezoid dx/2 (r_j + r_j+1), so G[0] is
    exactly 0 and G never decreases.
    """
    if np.shape(y_xi) != (grid.n,):
        raise ContractError(f"expected {grid.n} samples of y_xi, got shape "
                            f"{np.shape(y_xi)}")
    if np.minimum.reduce(y_xi) < 0.0:
        k = int(np.argmin(y_xi))
        raise NumericalAbort(
            f"kernel integrand negative at node {k}; state left Omega",
            {"node": k, "value": float(y_xi[k])},
        )
    at, windows, _, weights = _table(grid, tuple(kinks))
    # The full correlate pads y_xi with zeros, so that entry j + _HALF is
    # the cell [j, j+1] for every j; the table sets those whose stencil
    # would leave their piece.
    cells = np.correlate(y_xi, _cell_weights(grid.dx), "full")[_HALF:-_HALF]
    cells[at] = np.vecdot(y_xi[windows], weights)
    if np.minimum.reduce(cells) < 0.0:
        dips = np.flatnonzero(cells < 0.0)
        cells[dips] = (0.5 * grid.dx) * (y_xi[dips] + y_xi[dips + 1])
    G = np.empty(grid.n)
    G[0] = 0.0
    np.add.accumulate(cells, out=G[1:])
    return G


def _as_stack(p, G: np.ndarray, grid: Grid) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if (p.ndim not in (2, 3) or p.shape[0] != 2
            or (p.shape[-1], *G.shape) != (grid.n, grid.n)):
        raise ContractError(f"convolution needs a stack p of shape (2, n) or "
                            f"(2, k, n) and G (n,), n = {grid.n}; got "
                            f"{p.shape} and {G.shape}")
    return p


def _blocks(G: np.ndarray):
    # Node ranges [s, e] sharing their ends, each spanning at most
    # _BLOCK_SPAN in G past its first cell; one range when G spans less.
    n = G.size
    if G[-1] <= G[0] + _BLOCK_SPAN:
        return [(0, n - 1)]
    blocks, s = [], 0
    while s < n - 1:
        e = max(int(G.searchsorted(G[s] + _BLOCK_SPAN, side="right")) - 1,
                s + 1)
        blocks.append((s, e))
        s = e
    return blocks


class _Block:
    """The buffers and views of one scan pass over the cells [s, s+1] ..
    [e-1, e] of a (2, ..., n) stack on a line with boundary cells table,
    which reads the nodes lo .. hi-1: the scale pair exp(+-L) and the
    weight it scales, the flat buffer of scaled integrands between zero
    pads, and the cells of the flat correlate that the scans overwrite,
    the block's boundary cells, then with zero the cells outside [s, e]
    and those that straddle two rows (or a pad).
    """

    def __init__(self, table, shape, s, e):
        n = shape[-1]
        at, windows, weights = table
        mine = (s <= at) & (at < e)
        at, windows, weights = at[mine], windows[mine], weights[mine]
        self.lo = lo = max(min(s + 1 - _HALF, windows.min(initial=n)), 0)
        self.hi = hi = min(max(e + _HALF, windows.max(initial=0) + 1), n)
        m = hi - lo
        self.scale = np.empty((2, m))
        self.up, self.down = self.scale
        self.scaled_weight = np.empty((2, m))
        self.halves = np.empty(shape[:-1] + (m,))
        # The (k, m) views the scans run on.
        self.fwd, self.bwd = self.halves.reshape(2, -1, m)
        self.scaled_column = self.scaled_weight[:, None]
        rows = self.halves.size // m
        self.flat = np.zeros(rows * m + 2 * _HALF)
        self.scaled = self.flat[_HALF:-_HALF].reshape(2, -1, m)
        # c[r m + j + 1] is the cell [j, j+1] of row r, so c[r m] is the
        # straddle left of the row.
        starts = np.arange(rows)[:, None] * m
        outside = np.r_[:s - lo + 1, e - lo + 1:m]
        self.cells = np.concatenate(((starts + at - lo + 1).ravel(),
                                     (starts + outside).ravel(), [rows * m]))
        self.windows = (starts[:, :, None] + windows - lo + _HALF).reshape(
            -1, windows.shape[1])
        self.weights = np.tile(weights, (rows, 1))
        self.values = np.zeros(self.cells.size)
        self.boundary = self.values[:self.windows.shape[0]]


class SourcePlan(_Block):
    """The buffers and views of the source pass on one grid and its kink
    labels kinks, built once for a stack p of shape (2, n) or (2, k, n),
    by default (2, 2, n), the pairs the rates read.  Every call handed
    the plan overwrites them, so the caller reads a result before the
    next call with the same plan.

    It is the block of the whole line, with the slopes (T, c) and the
    swaps (V, U) and (T_Z, T_W) of (U, V) and T, the pairs A^2 B and
    T^2/2, the y_xi and node weight rows, the integrand stack p, the
    line's boundary-cell table and exp_convolve's finiteness screen
    besides.
    """

    def __init__(self, grid: Grid, shape=None, kinks=()):
        n = grid.n
        self.shape = (2, 2, n) if shape is None else tuple(shape)
        self.kinks = tuple(map(float, kinks))
        self.table = _table(grid, self.kinks)[:3]
        # Rows T_W, T_Z, T_W, so that T and its swap are forward views: a
        # row-reversed operand costs numpy about twice a forward one.
        self.slope_rows = np.empty((3, n))
        self.slopes = (self.slope_rows[:2], np.empty((2, n)))
        self.swapped = (np.empty((2, n)), self.slope_rows[1:])
        self.a2b, self.half_t2 = np.empty((2, 2, n))
        self.y_xi, self.weight = np.empty((2, n))
        self.p = np.empty(self.shape)
        self.integrands = tuple(self.p)
        super().__init__(self.table, self.shape, 0, n - 1)
        # exp_convolve's screen: the halves, flat, dot 2^-64.  A finite
        # entry times 2^-64 is below 2^960, so the sum of fewer than 2^64
        # of them cannot overflow, and it is finite exactly when every
        # entry is.
        self.flat_halves = self.halves.reshape(-1)
        self.screen = np.full(self.halves.size, 2.0 ** -64)

    def swap(self, state: TransformedState):
        """Fill and return the swaps (V, U) of the state's (U, V) and
        (T_Z, T_W) of the slopes T in self.slopes."""
        np.copyto(self.swapped[0], state.data[1::-1])
        self.slope_rows[2] = self.slope_rows[0]
        return self.swapped


def _scans(p, G, w, block):
    # With L = G - G[0], the scaled integrands Q = w p exp(+-L) of all
    # rows lie back to back in the block's flat buffer, between _HALF
    # zero pads on either side, so one correlate gives every row's cells:
    # c[j] is the cell left of node j of the rows laid end to end.  One
    # gather and one row-wise dot give the boundary cells, which replace
    # theirs, and the cells outside the block are set to zero.
    up, down, flat = block.up, block.down, block.flat
    size = flat.size - 2 * _HALF
    np.exp(G if G[0] == 0.0 else G - G[0], out=up)
    np.divide(1.0, up, out=down)
    np.multiply(block.scale, w, out=block.scaled_weight)
    np.multiply(p, block.scaled_column, out=block.scaled)
    c = np.correlate(flat, _CELL_RULE)
    np.vecdot(flat[block.windows], block.weights, out=block.boundary)
    c[block.cells] = block.values
    # Left cells of each forward node, right cells of each backward one.
    fwd = c[:size // 2].reshape(block.fwd.shape)
    bwd = c[size // 2 + 1:].reshape(block.bwd.shape)
    np.add.accumulate(fwd, axis=1, out=fwd)
    rev = bwd[:, ::-1]
    np.add.accumulate(rev, axis=1, out=rev)
    np.multiply(fwd, down, out=block.fwd)
    np.multiply(bwd, up, out=block.bwd)


def _first_bad_node(p, G, blocks, halves) -> int:
    # A scan carries a non-finite input to every node past it, and a
    # cell to its outer neighbours, so name the first non-finite input
    # node, then the first that overflowed in a block's scaled buffer,
    # weighted and scaled by its exp(+-L), and the first bad output else.
    n = G.size
    bad = ~(np.isfinite(p).reshape(-1, n).all(axis=0) & np.isfinite(G))
    for b in blocks if not bad.any() else ():
        bad[b.lo:b.hi] |= ~np.isfinite(b.scaled).all(axis=(0, 1))
    if not bad.any():
        bad = ~np.isfinite(halves).reshape(-1, n).all(axis=0)
    return int(np.argmax(bad))


def exp_convolve(p, G: np.ndarray, grid: Grid, weight=None,
                 plan=None, kinks=()) -> np.ndarray:
    """Forward and backward halves of the kernel quadrature, O(n) per row.

    p stacks the forward integrand p[0] on the backward one p[1], each
    (n,) or (k, n), and weight (a row, 1 if not given) multiplies both.
    Returns (fwd, bwd) stacked like p: fwd[..., i] integrates
    E(xi_i, eta) weight p[0](eta) left of xi_i, bwd[..., i] weight p[1]
    right of it.

    The line is one block, or where G spans more than _BLOCK_SPAN, the
    blocks [s, e] of _blocks.  In a block with L = G - G[lo], lo the
    first node its cells read, one scan body gives fwd as exp(-L) times
    the prefix integral from s of dx weight p[0] exp(L), and bwd as
    exp(L) times the suffix integral to e of dx weight p[1] exp(-L).
    After the scans, fwd at s times exp(G[s] - G) joins the block right
    of s, and bwd at e times exp(G - G[e]) the block left of e.  Both
    integrands are smooth through eta = xi_i, where the kernel has its
    kink, so each takes the cell rule of kernel_accumulator, with its
    one-sided stencils at the grid ends and at the kink labels kinks and
    its split cells at the kinks: eighth order on each smooth piece.
    plan, a SourcePlan for p's shape on the grid and the same kinks,
    holds the result and the work buffers if given; the next call with
    it then overwrites the result.  p may be the plan's own stack
    plan.p, whose shape the plan has settled, so it skips the shape
    checks.

    One sum screens the halves for a non-finite entry: the plan's
    screen, the dot product of the halves with 2^-64, which no finite
    stack can overflow (a plain sum can, and then warns).  Where it is
    not finite, the first bad node is found entry by entry and named in
    the NumericalAbort raised.
    """
    if plan is None or p is not plan.p:
        p = _as_stack(p, G, grid)
    if plan is None:
        plan = SourcePlan(grid, p.shape, kinks)
    elif plan.shape != p.shape or plan.kinks != tuple(kinks):
        raise ContractError(f"a plan for stacks of shape {plan.shape} and "
                            f"kinks {plan.kinks} got one of shape {p.shape} "
                            f"and kinks {tuple(kinks)}")
    n, dx = grid.n, grid.dx
    halves, spans = plan.halves, _blocks(G)
    # The node weight of the quadrature, dx times the integrands' weight.
    w = dx if weight is None else np.multiply(weight, dx, out=plan.weight)
    q = p.reshape(2, -1, n)
    if len(spans) == 1:
        blocks = [plan]
        _scans(q, G, w, plan)
    else:
        # Each block sums from zero; then fwd at s decays into the block
        # right of s, from the left, and bwd at e into the one left of e.
        blocks = [_Block(plan.table, p.shape, s, e) for s, e in spans]
        fwd, bwd = plan.fwd, plan.bwd
        fwd[:, 0] = bwd[:, -1] = 0.0
        for b, (s, e) in zip(blocks, spans):
            at = slice(b.lo, b.hi)
            _scans(q[..., at], G[at], w if weight is None else w[at], b)
            fwd[:, s + 1:e + 1] = b.fwd[:, s + 1 - b.lo:e + 1 - b.lo]
            bwd[:, s:e] = b.bwd[:, s - b.lo:e - b.lo]
        for s, e in spans[1:]:
            fwd[:, s + 1:e + 1] += fwd[:, s:s + 1] * np.exp(G[s]
                                                          - G[s + 1:e + 1])
        for s, e in spans[-2::-1]:
            bwd[:, s:e] += bwd[:, e:e + 1] * np.exp(G[s:e] - G[e])
    if not math.isfinite(np.dot(plan.flat_halves, plan.screen)):
        k = _first_bad_node(p, G, blocks, halves)
        raise NumericalAbort(
            f"exp_convolve produced a non-finite value at node {k}", {"node": k}
        )
    return halves


def exp_convolve_bruteforce(p, G: np.ndarray, grid: Grid,
                            kinks=()) -> np.ndarray:
    """Reference double-loop quadrature; identical contract and rule, O(n^2).

    Row m of the cell matrix holds the weights the cell rule gives the
    nodes on cell [m, m+1], in units of dx: the centred 8-point rule, or
    the boundary table's row at the grid ends and the kink labels kinks.
    fwd[i] sums the cells left of xi_i and bwd[i] those right of it,
    each node eta_j weighted by the one-sided kernel exp(-+(G[i] -
    G[j])), which the cells next to xi_i continue past it as far as
    their stencils reach.
    """
    p = _as_stack(p, G, grid)
    n, dx = grid.n, grid.dx
    at, windows, weights, _ = _table(grid, tuple(kinks))
    cells = np.zeros((n - 1, n))
    for offset, weight in zip(range(1 - _HALF, 1 + _HALF), _CELL_RULE):
        m = np.arange(max(-offset, 0), min(n - 1, n - offset))
        cells[m, m + offset] = weight
    cells[at] = 0.0
    np.add.at(cells, (at[:, None], windows), weights)
    left = np.zeros((n, n))
    left[1:] = np.cumsum(cells, axis=0)
    right = np.zeros((n, n))
    right[:-1] = np.cumsum(cells[::-1], axis=0)[::-1]
    # The farthest node each half reaches past xi_i.
    nonzero = cells != 0.0
    last = n - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    first = np.argmax(nonzero, axis=1)
    reach_fwd = np.concatenate(([0], np.maximum.accumulate(last)))
    reach_bwd = np.concatenate((np.minimum.accumulate(first[::-1])[::-1],
                                [n - 1]))
    rise = G[None, :] - G[:, None]
    fwd_w = left * np.exp(np.minimum(rise, (G[reach_fwd] - G)[:, None]))
    bwd_w = right * np.exp(np.minimum(-rise, (G - G[reach_bwd])[:, None]))
    # Transposes put the node axis first for a (k, n) stack and are
    # no-ops on a single (n,) row.
    return np.stack(((fwd_w @ (dx * p[0]).T).T, (bwd_w @ (dx * p[1]).T).T))


def assemble_sources(state: TransformedState, slopes, a2b,
                     plan=None) -> np.ndarray:
    """The kernel halves the rates read, as a (2, 2, n) stack (fwd, bwd)
    of pairs with rows for U and V; slopes is slope_factors(state) and
    a2b the pair A^2 B, with (A, B) = (U, V) in row 0 and (V, U) in row 1.

    fwd is the forward half of y_xi (f1/2 - f2/4) and bwd the backward
    half of y_xi (f1/2 + f2/4), so fwd - bwd = -dx P1 - P2 and
    fwd + bwd = P1 + dx P2 in row 0, and the same of S in row 1.
    plan, if given, is a SourcePlan on the state's grid and kinks that
    holds the work rows and the result; slopes are then its plan.slopes,
    and plan.swap(state) has filled their swaps and the state's.
    """
    if plan is None:
        plan = SourcePlan(state.grid, kinks=state.kinks)
        np.copyto(plan.slopes[0], slopes[0])
        plan.swap(state)
    T, c = slopes
    # (U, V) and (V, U): the S integrands are the P ones with roles swapped.
    A, (B, T_r) = state.data[:2], plan.swapped
    y_xi = _y_xi(state.q, *c, out=plan.y_xi)
    G = kernel_accumulator(y_xi, state.grid, state.kinks)
    p = plan.p
    p_fwd, f1 = plan.integrands
    # f1 = (A T T_r + A^2 B) + B T^2/2 builds in p[1], and
    # f2/2 = (T^2/2) T_r in half_t2.
    np.multiply(A, T, out=f1)
    f1 *= T_r
    f1 += a2b
    half_t2 = np.multiply(0.5, T, out=plan.half_t2)
    half_t2 *= T
    f1 += np.multiply(B, half_t2, out=p_fwd)
    half_t2 *= T_r
    np.subtract(f1, half_t2, out=p_fwd)
    f1 += half_t2
    y_xi *= 0.5
    return exp_convolve(p, G, state.grid, y_xi, plan, state.kinks)
