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

from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbort
from .grid import Grid, prefix_integral
from .initial import TransformedState

__all__ = [
    "SourceFields",
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


@dataclass(frozen=True)
class SourceFields:
    P1: np.ndarray
    dxP1: np.ndarray
    P2: np.ndarray
    dxP2: np.ndarray
    S1: np.ndarray
    dxS1: np.ndarray
    S2: np.ndarray
    dxS2: np.ndarray


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


def kernel_accumulator(state: TransformedState) -> np.ndarray:
    """G, the prefix integral of y_xi, nondecreasing in Omega."""
    _, _, cw, _, cz, _ = half_angle_factors(state)
    r = _y_xi(state.q, cw, cz)
    if np.any(r < 0.0):
        k = int(np.argmin(r))
        raise NumericalAbort(
            f"kernel integrand negative at node {k}; state left Omega",
            {"node": k, "value": float(r[k])},
        )
    return prefix_integral(r, state.grid)


def _decay_scan(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """I[0] = 0, I[k] = exp(-(G[k]-G[k-1])) I[k-1] + b[k-1].

    Blocked evaluation: within a block starting at s,
      I[k] = exp(-(G[k]-G[s])) * (I[s] + sum_{j<=k} b[j-1] exp(G[j]-G[s]))
    and block boundaries are chosen so G[k]-G[s] stays bounded.
    """
    n = G.size
    out = np.zeros(n)
    carry = 0.0
    s = 0
    while s < n - 1:
        e = int(np.searchsorted(G, G[s] + _BLOCK_SPAN, side="right")) - 1
        e = min(max(e, s + 1), n - 1)
        L = G[s:e + 1] - G[s]
        acc = np.cumsum(b[s:e] * np.exp(L[1:]))
        out[s + 1:e + 1] = np.exp(-L[1:]) * (carry + acc)
        carry = out[e]
        s = e
    return out


def exp_convolve(p, G: np.ndarray, grid: Grid):
    """Whole-line kernel quadratures against p, O(n).

    Returns (even, odd): even[k] integrates E(xi_k, eta) p(eta) over the
    window; odd[k] is the same with sign flipped left of xi_k.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != G.shape or p.shape != (grid.n,):
        raise NumericalAbort(f"exp_convolve: shape mismatch {p.shape}")
    a = np.exp(-np.diff(G))
    half_dx = 0.5 * grid.dx
    fwd = _decay_scan(G, half_dx * (a * p[:-1] + p[1:]))
    G_rev = G[-1] - G[::-1]
    b_bwd = half_dx * (a * p[1:] + p[:-1])
    bwd = _decay_scan(G_rev, b_bwd[::-1])[::-1]
    even = fwd + bwd
    odd = bwd - fwd
    bad = ~(np.isfinite(even) & np.isfinite(odd))
    if bad.any():
        k = int(np.argmax(bad))
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
    wp = weights * p
    even = kernel @ wp
    sign = np.sign(np.arange(grid.n)[None, :] - np.arange(grid.n)[:, None])
    # Interior self-terms cancel between the two one-sided integrals,
    # but the window-edge nodes keep their half-cell: node 0 has no left
    # integral and node n-1 no right one.
    sign = sign.astype(float)
    sign[0, 0] = 1.0
    sign[-1, -1] = -1.0
    odd = (kernel * sign) @ wp
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


def assemble_sources(state: TransformedState) -> SourceFields:
    grid = state.grid
    sinW, sinZ, cw, sw, cz, sz = half_angle_factors(state)
    q = state.q
    G = kernel_accumulator(state)
    p1, p2 = _integrand_pair(q, state.U, state.V, sinW, sinZ, cw, sw, cz)
    s1, s2 = _integrand_pair(q, state.V, state.U, sinZ, sinW, cz, sz, cw)
    even_p1, odd_p1 = exp_convolve(p1, G, grid)
    even_p2, odd_p2 = exp_convolve(p2, G, grid)
    even_s1, odd_s1 = exp_convolve(s1, G, grid)
    even_s2, odd_s2 = exp_convolve(s2, G, grid)
    return SourceFields(
        P1=0.5 * even_p1,
        dxP1=0.5 * odd_p1,
        P2=0.125 * even_p2,
        dxP2=0.125 * odd_p2,
        S1=0.5 * even_s1,
        dxS1=0.5 * odd_s1,
        S2=0.125 * even_s2,
        dxS2=0.125 * odd_s2,
    )
