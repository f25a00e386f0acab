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

from .errors import NumericalAbort
from .grid import Grid, prefix_integral
from .initial import TransformedState

__all__ = [
    "half_angle_factors",
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
    """sin, cos^2(angle/2), sin^2(angle/2) for W and Z in one place."""
    cw = np.cos(0.5 * state.W) ** 2
    sw = np.sin(0.5 * state.W) ** 2
    cz = np.cos(0.5 * state.Z) ** 2
    sz = np.sin(0.5 * state.Z) ** 2
    return np.sin(state.W), np.sin(state.Z), cw, sw, cz, sz


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
    sinW, sinZ, cw, _, cz, _ = half_angle_factors(state)
    q = state.q
    return _y_xi(q, cw, cz), 0.5 * q * sinW * cz, 0.5 * q * cw * sinZ


def kernel_accumulator(state: TransformedState, factors) -> np.ndarray:
    """G, the prefix integral of y_xi, nondecreasing in Omega.

    factors is the tuple half_angle_factors(state) returns.
    """
    _, _, cw, _, cz, _ = factors
    r = _y_xi(state.q, cw, cz)
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
    out = np.zeros(b.shape[:-1] + (n,))
    carry = np.zeros(b.shape[:-1] + (1,))
    s = 0
    while s < n - 1:
        e = int(np.searchsorted(G, G[s] + _BLOCK_SPAN, side="right")) - 1
        e = min(max(e, s + 1), n - 1)
        L = G[s:e + 1] - G[s]
        acc = np.cumsum(b[..., s:e] * np.exp(L[1:]), axis=-1)
        out[..., s + 1:e + 1] = np.exp(-L[1:]) * (carry + acc)
        carry = out[..., e:e + 1]
        s = e
    return out


def exp_convolve(p, G: np.ndarray, grid: Grid):
    """Whole-line kernel quadratures against p, O(n) per row.

    p has shape (n,) or (k, n); a stack shares one pass over G.
    Returns (even, odd) of p's shape: even[..., i] integrates
    E(xi_i, eta) p(eta) over the window; odd is the same with sign
    flipped left of xi_i.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1:] != G.shape \
            or G.shape != (grid.n,):
        raise NumericalAbort(f"exp_convolve: shape mismatch {p.shape}")
    a = np.exp(-np.diff(G))
    half_dx = 0.5 * grid.dx
    fwd = _decay_scan(G, half_dx * (a * p[..., :-1] + p[..., 1:]))
    G_rev = G[-1] - G[::-1]
    b_bwd = half_dx * (a * p[..., 1:] + p[..., :-1])
    bwd = _decay_scan(G_rev, b_bwd[..., ::-1])[..., ::-1]
    even = fwd + bwd
    odd = bwd - fwd
    bad = ~(np.isfinite(even) & np.isfinite(odd))
    if bad.any():
        # Both scans carry a non-finite input to every node, so name the
        # first non-finite input node, and the first bad output otherwise.
        bad_in = ~(np.isfinite(p).reshape(-1, grid.n).all(axis=0)
                   & np.isfinite(G))
        if not bad_in.any():
            bad_in = bad.reshape(-1, grid.n).any(axis=0)
        k = int(np.argmax(bad_in))
        raise NumericalAbort(
            f"exp_convolve produced a non-finite value at node {k}", {"node": k}
        )
    return even, odd


def exp_convolve_bruteforce(p, G: np.ndarray, grid: Grid):
    """Reference double-loop quadrature; identical contract, O(n^2)."""
    p = np.asarray(p, dtype=float)
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


def _integrand_pair(q, A, B, sinA, sinB, cA, sA, cB):
    """First and second kernel integrands for one component.

    Called once as written for the P family and once with every
    (u, W) <-> (v, Z) role swapped for the S family, so the symmetry of
    the formulas under the swap holds bitwise.
    """
    i1 = q * (A * A * B * cA * cB + 0.25 * A * sinA * sinB + 0.5 * B * sA * cB)
    i2 = q * (sA * sinB)
    return i1, i2


# Kernel prefactors of the source rows P1, P2, S1, S2.
_SCALE = np.array([0.5, 0.125, 0.5, 0.125])[:, None]


def assemble_sources(state: TransformedState, factors):
    """(src, dx_src): the rows P1, P2, S1, S2 and their x-derivatives.

    Both are (4, n) arrays from one stacked convolution pass; factors is
    the tuple half_angle_factors(state) returns.
    """
    grid = state.grid
    sinW, sinZ, cw, sw, cz, sz = factors
    q = state.q
    G = kernel_accumulator(state, factors)
    p1, p2 = _integrand_pair(q, state.U, state.V, sinW, sinZ, cw, sw, cz)
    s1, s2 = _integrand_pair(q, state.V, state.U, sinZ, sinW, cz, sz, cw)
    even, odd = exp_convolve(np.stack((p1, p2, s1, s2)), G, grid)
    return _SCALE * even, _SCALE * odd
