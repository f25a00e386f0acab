"""Nonlocal source fields under the state-dependent exponential kernel.

The kernel between two nodes is exp(-|G[i] - G[j]|) where G is the
prefix integral of q cos^2(W/2) cos^2(Z/2).  Convolutions against it
split into a causal and an anticausal half, each satisfying a one-step
recursion with per-cell decay factors exp(-(G[k+1]-G[k])).  The scan
below vectorizes that recursion in blocks of bounded G-span, so no
exponential of an unbounded argument is ever formed; a quadratic-time
double loop with the same trapezoid weights serves as the oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericalAbort
from .grid import Grid, prefix_integral
from .initial import TransformedState

__all__ = [
    "LEVELS",
    "half_angle_factors",
    "level_distance",
    "xi_derivatives",
    "kernel_accumulator",
    "exp_convolve",
    "exp_convolve_bruteforce",
    "assemble_sources",
]

# Per-block bound on the kernel exponent span.  Within a block the scan
# forms exp(+L) with L <= span plus one cell, far below overflow.
_BLOCK_SPAN = 30.0


def half_angle_factors(state: TransformedState):
    """sin(angle), cos^2(angle/2), sin^2(angle/2) in one place, each a
    (2, n) pair with rows W and Z: the swap is the reversal pair[::-1]."""
    half = 0.5 * state.data[2:4]
    cos2 = np.square(np.cos(half))
    sin2 = np.square(np.sin(half, out=half), out=half)
    return np.sin(state.data[2:4]), cos2, sin2


# The breaking levels: W or Z at +pi or -pi.  Angles stay unwrapped, so
# both are physical.
LEVELS = (np.pi, -np.pi)


def level_distance(angle):
    """Distance of angle (a scalar or an array) to the nearest level."""
    return np.min([np.abs(angle - level) for level in LEVELS], axis=0)


def product_into(out: np.ndarray, *factors) -> np.ndarray:
    """out = ((f0 * f1) * f2) * ..., left to right as Python evaluates it."""
    np.multiply(factors[0], factors[1], out=out)
    for f in factors[2:]:
        out *= f
    return out


def _y_xi(q, cw, cz):
    # Grouping cw*cz first keeps y_xi, and with it the kernel potential,
    # bitwise invariant under the (u,W) <-> (v,Z) swap; IEEE
    # multiplication commutes but does not associate.
    return q * (cw * cz)


def xi_derivatives(state: TransformedState):
    """Analytic first xi-derivatives (y_xi, U_xi, V_xi) of the state:

        y_xi = q cos^2(W/2) cos^2(Z/2)
        U_xi = (q/2) sin W cos^2(Z/2)
        V_xi = (q/2) cos^2(W/2) sin Z
    """
    (sinW, sinZ), (cw, cz), _ = half_angle_factors(state)
    q = state.q
    return _y_xi(q, cw, cz), 0.5 * q * sinW * cz, 0.5 * q * cw * sinZ


def kernel_accumulator(state: TransformedState, factors) -> np.ndarray:
    """G, the prefix integral of y_xi, nondecreasing in Omega.

    factors is the tuple half_angle_factors(state) returns.
    """
    r = _y_xi(state.q, *factors[1])
    if np.any(r < 0.0):
        k = int(np.argmin(r))
        raise NumericalAbort(
            f"kernel integrand negative at node {k}; state left Omega",
            {"node": k, "value": float(r[k])},
        )
    return prefix_integral(r, state.grid)


def _decay_scan(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """I[0] = 0, I[k] = exp(-(G[k]-G[k-1])) I[k-1] + b[k-1], row by row.

    b has shape (..., n-1) and every row is scanned along the last axis
    against the same G.  Blocked evaluation: within a block starting at s,
      I[k] = exp(-(G[k]-G[s])) * (I[s] + sum_{j<=k} b[j-1] exp(G[j]-G[s]))
    and block boundaries are chosen so G[k]-G[s] stays bounded; the
    boundaries and both exponential factors are shared by all rows.
    """
    n = G.size
    out = np.empty(b.shape[:-1] + (n,))
    out[..., 0] = 0.0
    s = 0
    while s < n - 1:
        e = int(np.searchsorted(G, G[s] + _BLOCK_SPAN, side="right")) - 1
        e = min(max(e, s + 1), n - 1)
        L = G[s + 1:e + 1] - G[s]
        block = np.multiply(b[..., s:e], np.exp(L), out=out[..., s + 1:e + 1])
        np.cumsum(block, axis=-1, out=block)
        # Adding I[0] = +0.0 to the first block turns -0.0 into +0.0.
        block += out[..., s:s + 1]
        np.multiply(block, np.exp(-L), out=block)
        s = e
    return out


def _check_shape(p: np.ndarray, G: np.ndarray, grid: Grid) -> None:
    if p.ndim not in (1, 2) or (p.shape[-1], *G.shape) != (grid.n, grid.n):
        raise ContractError(f"convolution needs p of shape (n,) or (k, n) and G "
                            f"(n,), n = {grid.n}; got {p.shape} and {G.shape}")


def exp_convolve(p, G: np.ndarray, grid: Grid):
    """Whole-line kernel quadratures against p, O(n) per row.

    p has shape (n,) or (k, n); a stack shares one pass over G.
    Returns (even, odd) of p's shape: even[..., i] integrates
    E(xi_i, eta) p(eta) over the window; odd is the same with sign
    flipped left of xi_i.
    """
    p = np.asarray(p, dtype=float)
    _check_shape(p, G, grid)
    a = np.exp(-np.diff(G))
    b = a * p[..., :-1]
    b += p[..., 1:]
    b *= 0.5 * grid.dx
    fwd = _decay_scan(G, b)
    # Backward cell terms, in b again; that scan runs on the reversed line.
    b = np.multiply(a, p[..., 1:], out=b)
    b += p[..., :-1]
    b *= 0.5 * grid.dx
    bwd = _decay_scan(G[-1] - G[::-1], b[..., ::-1])[..., ::-1]
    even = fwd + bwd
    odd = np.subtract(bwd, fwd, out=fwd)
    if not (np.isfinite(even).all() and np.isfinite(odd).all()):
        # Both scans carry a non-finite input to every node, so name the
        # first non-finite input node, and the first bad output otherwise.
        bad_in = ~(np.isfinite(p).reshape(-1, grid.n).all(axis=0)
                   & np.isfinite(G))
        if not bad_in.any():
            bad = ~(np.isfinite(even) & np.isfinite(odd))
            bad_in = bad.reshape(-1, grid.n).any(axis=0)
        k = int(np.argmax(bad_in))
        raise NumericalAbort(
            f"exp_convolve produced a non-finite value at node {k}", {"node": k}
        )
    return even, odd


def exp_convolve_bruteforce(p, G: np.ndarray, grid: Grid):
    """Reference double-loop quadrature; identical contract, O(n^2)."""
    p = np.asarray(p, dtype=float)
    _check_shape(p, G, grid)
    weights = np.full(grid.n, grid.dx)
    weights[0] = weights[-1] = 0.5 * grid.dx
    kernel = np.exp(-np.abs(G[:, None] - G[None, :]))
    # Transposes put the node axis first for a (k, n) stack and are
    # no-ops on a single (n,) row.
    wp = (weights * p).T
    even = (kernel @ wp).T
    sign = np.sign(np.arange(grid.n)[None, :] - np.arange(grid.n)[:, None])
    # Interior self-terms cancel between the two one-sided integrals,
    # but the window-edge nodes keep their half-cell: node 0 has no left
    # integral and node n-1 no right one.
    sign = sign.astype(float)
    sign[0, 0] = 1.0
    sign[-1, -1] = -1.0
    odd = ((kernel * sign) @ wp).T
    return even, odd


# Kernel prefactors of the source rows P1, S1, P2, S2.
_SCALE = np.array([0.5, 0.5, 0.125, 0.125])[:, None]


def assemble_sources(state: TransformedState, factors):
    """(src, dx_src): the rows P1, S1, P2, S2 and their x-derivatives.

    Both are (4, n) arrays from one stacked convolution pass, each the
    row pairs (P1, S1) and (P2, S2); factors is the tuple
    half_angle_factors(state) returns.
    """
    sin, cos2, sin2 = factors
    # (U, V) and (V, U): the S integrands are the P ones with roles swapped.
    A, B = state.data[:2], state.data[1::-1]
    G = kernel_accumulator(state, factors)
    p = np.empty((4, state.grid.n))
    term = np.empty_like(A)
    first = product_into(p[:2], A, A, B, cos2, cos2[::-1])
    first += product_into(term, 0.25, A, sin, sin[::-1])
    first += product_into(term, 0.5, B, sin2, cos2[::-1])
    first *= state.q
    product_into(p[2:], sin2, sin[::-1], state.q)
    even, odd = exp_convolve(p, G, state.grid)
    even *= _SCALE
    odd *= _SCALE
    return even, odd
