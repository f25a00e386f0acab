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
rates read as one (2, ..., n) stack, in one blocked O(n) pass with the
trapezoid weights.  A quadratic-time double loop with the same weights
serves as the oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericalAbort
from .grid import Grid, prefix_integral
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


def _slopes(state: TransformedState) -> np.ndarray:
    # The package's one tan call; a fresh (2, n) array.
    T = np.multiply(0.5, state.data[2:4])
    return np.tan(T, out=T)


def slope_factors(state: TransformedState):
    """The slopes T = tan(angle/2) (u_x in row W, v_x in row Z) and
    c = cos^2(angle/2) = 1/(1 + T^2), each a (2, n) pair whose reversal
    pair[::-1] is the swap.  At the double nearest +-pi, T is about
    1.6e16, so T^2 stays finite.
    """
    T = _slopes(state)
    c = np.square(T)
    c += 1.0
    return T, np.divide(1.0, c, out=c)


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


def _y_xi(q, cw, cz):
    # Grouping cw*cz first keeps y_xi, and with it the kernel potential,
    # bitwise invariant under the (u,W) <-> (v,Z) swap; IEEE
    # multiplication commutes but does not associate.
    return q * (cw * cz)


def xi_derivatives(state: TransformedState, slopes=None):
    """Analytic first xi-derivatives (y_xi, U_xi, V_xi) of the state:

        y_xi = q cos^2(W/2) cos^2(Z/2),  U_xi = y_xi u_x,  V_xi = y_xi v_x

    slopes is slope_factors(state), evaluated here if not given.
    """
    T, c = slopes or slope_factors(state)
    y_xi = _y_xi(state.q, *c)
    return (y_xi, *(y_xi * T))


def kernel_accumulator(y_xi: np.ndarray, grid: Grid) -> np.ndarray:
    """G, the prefix integral of the row y_xi, nondecreasing in Omega."""
    if (y_xi < 0.0).any():
        k = int(np.argmin(y_xi))
        raise NumericalAbort(
            f"kernel integrand negative at node {k}; state left Omega",
            {"node": k, "value": float(y_xi[k])},
        )
    return prefix_integral(y_xi, grid)


def _as_stack(p, G: np.ndarray, grid: Grid) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if (p.ndim not in (2, 3) or p.shape[0] != 2
            or (p.shape[-1], *G.shape) != (grid.n, grid.n)):
        raise ContractError(f"convolution needs a stack p of shape (2, n) or "
                            f"(2, k, n) and G (n,), n = {grid.n}; got "
                            f"{p.shape} and {G.shape}")
    return p


def exp_convolve(p, G: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward and backward halves of the kernel quadrature, O(n) per row.

    p stacks the forward integrand p[0] on the backward one p[1], each
    (n,) or (k, n).  Returns (fwd, bwd) stacked like p: fwd[..., i]
    integrates E(xi_i, eta) p[0](eta) left of xi_i, bwd[..., i] p[1] right.
    """
    p = _as_stack(p, G, grid)
    n, dx = grid.n, grid.dx
    # Running sums at weight dx, from the half cell of node 0 or n-1;
    # both halves live in one buffer, so one scan screens them.
    halves = np.multiply(p, dx)
    fwd, bwd = halves.reshape(2, -1, n)
    fwd[:, 0] *= 0.5
    bwd[:, -1] *= 0.5
    # Both halves share the blocks and exp(+-L), L = G - G[block start s].
    blocks, s = [], 0
    while s < n - 1:
        e = max(int(G.searchsorted(G[s] + _BLOCK_SPAN, side="right")) - 1,
                s + 1)
        L = G[s:e + 1] - G[s]
        up, down = np.exp(L), np.exp(-L)
        # F[k] = exp(-L[k]) (F[s] + sum_{s<j<=k} dx p[j] exp(L[j])); the
        # carry F[s] is scaled by up[0] = down[0] = exp(0.0) = 1.0 exactly.
        block = fwd[:, s:e + 1]
        block *= up
        block.cumsum(axis=1, out=block)
        block *= down
        blocks.append((s, e, up, down))
        s = e
    for s, e, up, down in reversed(blocks):
        # B[k] = exp(L[k]) (sum_{k<=j<e} dx p[j] exp(-L[j]) + B[e] exp(-L[e]));
        # the carry B[e] joins the sum at slot e-1, so slot e keeps it.
        block = bwd[:, s:e]
        block *= down[:-1]
        block[:, -1] += bwd[:, e] * down[-1]
        rev = block[:, ::-1]
        rev.cumsum(axis=1, out=rev)
        block *= up[:-1]
    # Each node's own term belongs at half weight: dx p / 2 comes off.
    halves -= np.multiply(p, 0.5 * dx)
    if not np.isfinite(halves).all():
        # A scan carries a non-finite input to every node past it, so name
        # the first non-finite input node, and the first bad output else.
        bad_in = ~(np.isfinite(p).reshape(-1, n).all(axis=0) & np.isfinite(G))
        if not bad_in.any():
            bad_in = ~np.isfinite(halves).reshape(-1, n).all(axis=0)
        k = int(np.argmax(bad_in))
        raise NumericalAbort(
            f"exp_convolve produced a non-finite value at node {k}", {"node": k}
        )
    return halves


def exp_convolve_bruteforce(p, G: np.ndarray, grid: Grid) -> np.ndarray:
    """Reference double-loop quadrature; identical contract, O(n^2)."""
    p = _as_stack(p, G, grid)
    weights = np.full(grid.n, grid.dx)
    weights[0] = weights[-1] = 0.5 * grid.dx
    kernel = np.exp(-np.abs(G[:, None] - G[None, :]))
    # left[i, j] is +1 where eta_j lies left of xi_i.  Each half takes an
    # interior self-term at half weight, but node 0 has no left integral
    # and node n-1 no right one, so each keeps its half-cell in the other.
    idx = np.arange(grid.n)
    left = np.sign(np.subtract.outer(idx, idx), dtype=float)
    left[0, 0], left[-1, -1] = -1.0, 1.0
    # Transposes put the node axis first for a (k, n) stack and are
    # no-ops on a single (n,) row.
    fwd = ((kernel * (0.5 + 0.5 * left)) @ (weights * p[0]).T).T
    bwd = ((kernel * (0.5 - 0.5 * left)) @ (weights * p[1]).T).T
    return np.stack((fwd, bwd))


def assemble_sources(state: TransformedState, slopes, a2b) -> np.ndarray:
    """The kernel halves the rates read, as a (2, 2, n) stack (fwd, bwd)
    of pairs with rows for U and V; slopes is slope_factors(state) and
    a2b the pair A^2 B, with (A, B) = (U, V) in row 0 and (V, U) in row 1.

    fwd is the forward half of y_xi (f1/2 - f2/4) and bwd the backward
    half of y_xi (f1/2 + f2/4), so fwd - bwd = -dx P1 - P2 and
    fwd + bwd = P1 + dx P2 in row 0, and the same of S in row 1.
    """
    T, c = slopes
    # (U, V) and (V, U): the S integrands are the P ones with roles swapped.
    A, B, T_r = state.data[:2], state.data[1::-1], T[::-1]
    y_xi = _y_xi(state.q, *c)
    G = kernel_accumulator(y_xi, state.grid)
    p = np.empty((2,) + A.shape)
    p_fwd, f1 = p
    # f1 = (A T T_r + A^2 B) + B T^2/2 builds in p[1], and
    # f2/2 = (T^2/2) T_r in half_t2.
    np.multiply(A, T, out=f1)
    f1 *= T_r
    f1 += a2b
    half_t2 = np.multiply(0.5, T)
    half_t2 *= T
    f1 += np.multiply(B, half_t2, out=p_fwd)
    half_t2 *= T_r
    np.subtract(f1, half_t2, out=p_fwd)
    f1 += half_t2
    p *= y_xi
    p *= 0.5
    return exp_convolve(p, G, state.grid)
