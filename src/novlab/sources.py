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
rates read as one (2, ..., n) stack, in one blocked O(n) pass.  G and
both halves take one quadrature, the 4-point cell rule: the integral
over [xi_j, xi_j+1] of the cubic through the samples at xi_j-1 ..
xi_j+2, dx/24 (13 (r_j + r_j+1) - (r_j-1 + r_j+2)).  In the
characteristic variables the solution stays smooth in xi through
gradient blow-up, so the rule is fourth order there, on smooth data and
through breaking alike; at a kink of the datum it falls back to second
order.  A quadratic-time double loop with the same rule serves as the
oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ContractError, NumericalAbort
from .grid import Grid
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
]

# Bound on L = G - G[block start], set by overflow alone: the forward
# sum scales the integrand by exp(L) <= e^100 (2.7e43) past one cell.
# Every shipped config's G spans less, so its sums run in one block.
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


# The 4-point cell rule: the integral over [xi_j, xi_j+1] of the cubic
# through r at xi_j-1 .. xi_j+2, in units of dx.
_CELL_RULE = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0


@lru_cache(maxsize=8)
def _cell_weights(dx: float) -> np.ndarray:
    # _CELL_RULE * dx, formed once per spacing and shared read-only.
    weights = _CELL_RULE * dx
    weights.flags.writeable = False
    return weights


# The breaking levels: W or Z at +pi or -pi.  Angles stay unwrapped, so
# both are physical.
LEVELS = (np.pi, -np.pi)
# An angle within this distance of a level touches it.
TOL_PI = 1e-3
# An angle derivative within this fraction of its local scale vanishes.
TOL_ZERO_REL = 1e-3


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


def kernel_accumulator(y_xi: np.ndarray, grid: Grid) -> np.ndarray:
    """G, the prefix integral of the row r = y_xi, nondecreasing in Omega.

    Each cell takes the 4-point rule dx/24 (13 (r_j + r_j+1) - (r_j-1 +
    r_j+2)), the integral of the cubic through the four nodes.  A cell
    that lacks a neighbour (the two end cells) or where the rule would
    go negative (a kink, where r collapses between its neighbours)
    keeps the trapezoid dx/24 (12 (r_j + r_j+1)), so G[0] is exactly 0
    and G never decreases.
    """
    if np.shape(y_xi) != (grid.n,):
        raise ContractError(f"expected {grid.n} samples of y_xi, got shape "
                            f"{np.shape(y_xi)}")
    if y_xi.min() < 0.0:
        k = int(np.argmin(y_xi))
        raise NumericalAbort(
            f"kernel integrand negative at node {k}; state left Omega",
            {"node": k, "value": float(y_xi[k])},
        )
    half = 0.5 * grid.dx
    G = np.empty(grid.n)
    G[0] = 0.0
    G[1] = half * (y_xi[0] + y_xi[1])
    if grid.n > 3:
        # The inner cells, summed on from G[1] in place.
        cells = np.correlate(y_xi, _cell_weights(grid.dx))
        if cells.min() < 0.0:
            kinked = np.flatnonzero(cells < 0.0)
            cells[kinked] = half * (y_xi[kinked + 1] + y_xi[kinked + 2])
        cells[0] += G[1]
        np.add.accumulate(cells, out=G[2:-1])
    G[-1] = G[-2] + half * (y_xi[-2] + y_xi[-1])
    return G


def _as_stack(p, G: np.ndarray, grid: Grid) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if (p.ndim not in (2, 3) or p.shape[0] != 2
            or (p.shape[-1], *G.shape) != (grid.n, grid.n)):
        raise ContractError(f"convolution needs a stack p of shape (2, n) or "
                            f"(2, k, n) and G (n,), n = {grid.n}; got "
                            f"{p.shape} and {G.shape}")
    return p


def _cell_integrals(r, out):
    # out[j], the integral of the row r over [xi_j, xi_j+1] in units of
    # dx: the 4-point rule, and the trapezoid on the two end cells, which
    # lack an outer neighbour.
    if r.size > 3:
        out[1:-1] = np.correlate(r, _CELL_RULE)
    out[0] = 0.5 * (r[0] + r[1])
    out[-1] = 0.5 * (r[-2] + r[-1])


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


class SourcePlan:
    """The buffers and views of the source pass on one grid, built once
    for a stack p of shape (2, n) or (2, k, n), by default (2, 2, n), the
    pairs the rates read.  Every call handed the plan overwrites them, so
    the caller reads a result before the next call with the same plan.

    It holds the slopes (T, c), the pairs A^2 B and T^2/2, the y_xi and
    node weight rows, the integrand stack p, the scale pair exp(+-L) and
    the weight it scales, the flat buffer of scaled integrands with two
    zero pads on either side, the places of the cells the scan sets by
    hand, and the halves, each with the views the calls read.
    """

    def __init__(self, grid: Grid, shape=None):
        n = grid.n
        self.shape = (2, 2, n) if shape is None else tuple(shape)
        self.slopes = tuple(np.empty((2, 2, n)))
        self.a2b, self.half_t2 = np.empty((2, 2, n))
        self.y_xi, self.weight = np.empty((2, n))
        self.p = np.empty(self.shape)
        self.integrands = tuple(self.p)
        self.scale = np.empty((2, n))
        self.up, self.down = self.scale
        self.scaled_weight = np.empty((2, n))
        self.halves = np.empty(self.shape)
        self.finite = np.empty(self.shape, dtype=bool)
        # The (2, k, n) views the scans run on.
        self.stack = self.halves.reshape(2, -1, n)
        self.fwd, self.bwd = self.stack
        self.scaled_column = self.scaled_weight[:, None]
        rows = self.p.size // n
        self.flat = np.zeros(rows * n + 4)
        self.scaled = self.flat[2:-2].reshape(self.stack.shape)
        # The cells of the flat correlate that the scans overwrite: each
        # row's two end cells, [0, 1] and [n-2, n-1], with the trapezoid
        # of the flat nodes at left and right, then the rows + 1 cells
        # that straddle two rows (or a pad), with zero.
        starts = np.arange(rows) * n
        first = np.stack((starts, starts + n - 2), axis=1).ravel()
        self.left, self.right = first + 2, first + 3
        self.fixed_cells = np.concatenate((first + 1, np.arange(rows + 1) * n))
        self.fixed_values = np.zeros(self.fixed_cells.size)
        self.ends = self.fixed_values[:2 * rows]


def _one_block_scans(p, G, w, plan):
    # With L = G - G[0], the scaled integrands Q = w p exp(+-L) of all
    # rows lie back to back in the plan's flat buffer, between two zero
    # pads on either side, so one correlate gives every row's cells: c[j]
    # is the cell left of flat node j.  The cells that straddle two rows
    # are set to zero, and the end cells of each row to the trapezoid.
    up, down, flat = plan.up, plan.down, plan.flat
    size = flat.size - 4
    np.exp(G if G[0] == 0.0 else G - G[0], out=up)
    np.divide(1.0, up, out=down)
    np.multiply(plan.scale, w, out=plan.scaled_weight)
    np.multiply(p, plan.scaled_column, out=plan.scaled)
    c = np.correlate(flat, _CELL_RULE)
    ends = np.add(flat[plan.left], flat[plan.right], out=plan.ends)
    ends *= 0.5
    c[plan.fixed_cells] = plan.fixed_values
    # Left cells of each forward node, right cells of each backward one.
    fwd = c[:size // 2].reshape(plan.fwd.shape)
    bwd = c[size // 2 + 1:].reshape(plan.bwd.shape)
    np.add.accumulate(fwd, axis=1, out=fwd)
    rev = bwd[:, ::-1]
    np.add.accumulate(rev, axis=1, out=rev)
    np.multiply(fwd, down, out=plan.fwd)
    np.multiply(bwd, up, out=plan.bwd)


def _blocked_scans(p, G, dx, halves, blocks):
    # The scans block by block, both halves sharing the blocks and
    # exp(+-L).  A block's cells take the integrands scaled to it on the
    # block and one node past either end, so each cell sees its outer
    # neighbours; the forward sum carries its value at e into the next
    # block, and the backward sum its value at s into the one before.
    n = G.size
    fwd, bwd = halves
    fwd[:, 0] = 0.0
    bwd[:, -1] = 0.0
    scaled = []
    for s, e in blocks:
        lo, hi = max(s - 1, 0), min(e + 2, n)
        L = G[lo:hi] - G[s]
        up, down = np.exp(L), np.exp(-L)
        q = p[..., lo:hi] * dx
        q[0] *= up
        q[1] *= down
        cells = np.empty(q.shape[:-1] + (hi - lo - 1,))
        for row, out in zip(q.reshape(-1, hi - lo),
                            cells.reshape(-1, hi - lo - 1)):
            _cell_integrals(row, out)
        # The block's own cells, [s, s+1] .. [e-1, e].
        cells = cells[..., s - lo:e - lo]
        acc = cells[0].cumsum(axis=1)
        acc += fwd[:, s:s + 1]
        fwd[:, s + 1:e + 1] = acc * down[s - lo + 1:e - lo + 1]
        scaled.append((s, e, lo, up, down, cells[1]))
    for s, e, lo, up, down, cells in reversed(scaled):
        acc = cells[:, ::-1].cumsum(axis=1)[:, ::-1]
        acc += bwd[:, e:e + 1] * down[e - lo]
        bwd[:, s:e] = acc * up[s - lo:e - lo]


def _first_bad_node(p, G, w, blocks, halves) -> int:
    # A scan carries a non-finite input to every node past it, and a
    # cell to its outer neighbours, so name the first non-finite input
    # node, then the first input that overflows once weighted by w and
    # scaled by exp(+-L), and the first bad output else.
    n = G.size
    bad = ~(np.isfinite(p).reshape(-1, n).all(axis=0) & np.isfinite(G))
    q_fwd, q_bwd = p.reshape(2, -1, n) * w
    with np.errstate(over="ignore", invalid="ignore"):
        for s, e in blocks if not bad.any() else ():
            up = np.exp(G[s:e + 1] - G[s])
            bad[s:e + 1] |= ~(np.isfinite(q_fwd[:, s:e + 1] * up)
                              & np.isfinite(q_bwd[:, s:e + 1] / up)).all(axis=0)
    if not bad.any():
        bad = ~np.isfinite(halves).reshape(-1, n).all(axis=0)
    return int(np.argmax(bad))


def exp_convolve(p, G: np.ndarray, grid: Grid, weight=None,
                 plan=None) -> np.ndarray:
    """Forward and backward halves of the kernel quadrature, O(n) per row.

    p stacks the forward integrand p[0] on the backward one p[1], each
    (n,) or (k, n), and weight (a row, 1 if not given) multiplies both.
    Returns (fwd, bwd) stacked like p: fwd[..., i] integrates
    E(xi_i, eta) weight p[0](eta) left of xi_i, bwd[..., i] weight p[1]
    right of it.

    In a block with L = G - G[block start], fwd is exp(-L) times the
    prefix integral of Q = dx weight p[0] exp(L), and bwd is exp(L)
    times the suffix integral of dx weight p[1] exp(-L).  Both are
    smooth through eta = xi_i, where the kernel has its kink, so each
    takes the 4-point cell rule of kernel_accumulator, fourth order on
    smooth data.  Node by node this is the trapezoid with the
    Euler-Maclaurin correction at the kink, fwd -= dx^2/12 (G' p[0] +
    p[0]') and bwd -= dx^2/12 (G' p[1] - p[1]'): each running sum loses
    Q/2 +- (Q[i+1] - Q[i-1])/24.  The two end cells keep the trapezoid.
    plan, a SourcePlan for p's shape on the grid, holds the result and
    the work buffers if given; the next call with it then overwrites the
    result.
    """
    p = _as_stack(p, G, grid)
    if plan is None:
        plan = SourcePlan(grid, p.shape)
    elif plan.shape != p.shape:
        raise ContractError(f"a plan for stacks of shape {plan.shape} got "
                            f"one of shape {p.shape}")
    n, dx = grid.n, grid.dx
    halves, blocks = plan.halves, _blocks(G)
    # The node weight of the quadrature, dx times the integrands' weight.
    w = dx if weight is None else np.multiply(weight, dx, out=plan.weight)
    if len(blocks) == 1:
        _one_block_scans(p.reshape(2, -1, n), G, w, plan)
    else:
        q = p if weight is None else p * weight
        _blocked_scans(q.reshape(2, -1, n), G, dx, plan.stack, blocks)
    if not np.isfinite(halves, out=plan.finite).all():
        k = _first_bad_node(p, G, w, blocks, halves)
        raise NumericalAbort(
            f"exp_convolve produced a non-finite value at node {k}", {"node": k}
        )
    return halves


def exp_convolve_bruteforce(p, G: np.ndarray, grid: Grid) -> np.ndarray:
    """Reference double-loop quadrature; identical contract and rule, O(n^2).

    Row m of the cell matrix holds the weights the 4-point rule (the
    trapezoid on the two end cells) gives the nodes on cell [m, m+1],
    in units of dx.  fwd[i] sums the cells left of xi_i and bwd[i] those
    right of it, each node eta_j weighted by the one-sided kernel
    exp(-+(G[i] - G[j])), which the cell next to xi_i continues one
    node past it.
    """
    p = _as_stack(p, G, grid)
    n, dx = grid.n, grid.dx
    cells = np.zeros((n - 1, n))
    m = np.arange(n - 1)
    cells[m, m] = cells[m, m + 1] = 0.5
    inner = m[1:-1]
    for offset, weight in zip((-1, 0, 1, 2), _CELL_RULE):
        cells[inner, inner + offset] = weight
    left = np.zeros((n, n))
    left[1:] = np.cumsum(cells, axis=0)
    right = np.zeros((n, n))
    right[:-1] = np.cumsum(cells[::-1], axis=0)[::-1]
    rise = G[None, :] - G[:, None]
    # Only the cell next to xi_i reaches past it, and by one node.
    fwd_w = left * np.exp(np.minimum(rise, np.diff(G, append=G[-1])[:, None]))
    bwd_w = right * np.exp(np.minimum(-rise, np.diff(G, prepend=G[0])[:, None]))
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
    plan, if given, is a SourcePlan on the state's grid that holds the
    work rows and the result.
    """
    if plan is None:
        plan = SourcePlan(state.grid)
    T, c = slopes
    # (U, V) and (V, U): the S integrands are the P ones with roles swapped.
    A, B, T_r = state.data[:2], state.data[1::-1], T[::-1]
    y_xi = _y_xi(state.q, *c, out=plan.y_xi)
    G = kernel_accumulator(y_xi, state.grid)
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
    return exp_convolve(p, G, state.grid, y_xi, plan)
