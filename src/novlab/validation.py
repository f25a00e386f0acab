"""One-shot property suite behind the validate subcommand.

Each check is a small self-contained experiment: oracle equivalences,
exact identities, round trips, and determinism.  Checks are pure
functions of (config, rng) so the suite is reproducible from the
seed, and each has one size.  The test suite runs them on the default
config and every shipped one, and draws its own random states and
tangents from the builders defined here.
"""

from __future__ import annotations

import io
import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import cliio
from .config import ScenarioConfig
from .errors import NovlabError
from .evolution import evolve, rhs
from .grid import (Grid, fd_derivative, integrate, kink_positions, make_grid,
                   prefix_integral)
from .initial import (TransformedState, _density_table, _invert,
                      builtin_datum, transform_with_map)
from .metric import (DEFAULT_DESCENT_ITERS, distance_upper, shift_value,
                     tangent_norm_info)
from .reconstruct import euler_fields, measure_interval, sample_at
from .sources import (assemble_sources, exp_convolve, exp_convolve_bruteforce,
                      kernel_accumulator, slope_factors, xi_derivatives)

__all__ = ["CheckResult", "bumps", "random_state", "random_tangent",
           "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def bumps(rng: np.random.Generator, grid: Grid, count: int,
          amp: float) -> np.ndarray:
    """Random sum of gaussians centred in the middle 40% of the window."""
    xi = grid.nodes
    span = grid.xi_max - grid.xi_min
    out = np.zeros(grid.n)
    for _ in range(count):
        a = rng.uniform(-amp, amp)
        c = rng.uniform(grid.xi_min + 0.3 * span, grid.xi_max - 0.3 * span)
        w = rng.uniform(0.5, 2.0)
        out += a * np.exp(-(((xi - c) / w) ** 2))
    return out


def random_state(rng: np.random.Generator, grid: Grid) -> TransformedState:
    """Smooth random state inside the validity region, decaying at the ends.

    The map y is the identity xi, which the random fields do not match.
    """
    return TransformedState(0.0, grid, np.stack((
        bumps(rng, grid, 3, 0.8),
        bumps(rng, grid, 3, 0.8),
        bumps(rng, grid, 3, 1.2),
        bumps(rng, grid, 3, 1.2),
        1.0 + bumps(rng, grid, 2, 0.3),
        grid.nodes,
    )))


def random_tangent(rng: np.random.Generator, grid: Grid) -> np.ndarray:
    """Smooth random (5, n) tangent, its rows drawn in the order R, S, A, B, Q."""
    return np.stack([bumps(rng, grid, 2, 0.5) for _ in range(5)])


def check_prefix_vs_integrate(cfg, rng):
    grid = make_grid(-5.0, 5.0, 512)
    worst = 0.0
    for _ in range(5):
        samples = rng.normal(size=grid.n)
        gap = abs(prefix_integral(samples, grid)[-1] - integrate(samples, grid))
        worst = max(worst, gap)
    return worst == 0.0, f"max |prefix[-1] - integrate| = {worst:.3g}"


def check_fd_polynomial(cfg, rng):
    grid = make_grid(-2.0, 2.0, 256)
    xi = grid.nodes
    eps = np.finfo(float).eps
    worst_ratio = 0.0
    for order, exact in ((1, 3 * xi**2), (2, 6 * xi), (3, np.full(grid.n, 6.0)),
                         (4, np.zeros(grid.n))):
        err = float(np.max(np.abs(fd_derivative(xi**3, grid, order) - exact)))
        # Cubics carry no truncation error, only roundoff amplified by
        # the stencil's dx**-order scaling.
        floor = eps * float(np.max(np.abs(xi**3))) / grid.dx**order
        worst_ratio = max(worst_ratio, err / floor)
    ok = worst_ratio < 1000.0
    return ok, f"worst cubic-poly FD error = {worst_ratio:.3g}x roundoff floor"


def check_scan_vs_bruteforce(cfg, rng):
    # The trials cycle through no kink, a kink between two nodes and a
    # kink on a node, each in the middle half of the window.
    trials = 20
    grid = make_grid(-10.0, 10.0, 512)
    worst = 0.0
    for trial in range(trials):
        state = random_state(rng, grid)
        node = grid.nodes[rng.integers(128, 384)]
        kinks = ((), (node + 0.4 * grid.dx,), (node,))[trial % 3]
        G = kernel_accumulator(xi_derivatives(state)[0], grid, kinks)
        p = np.stack([bumps(rng, grid, 3, 1.0)] * 2)
        for fast, slow in zip(exp_convolve(p, G, grid, kinks=kinks),
                              exp_convolve_bruteforce(p, G, grid, kinks)):
            worst = max(worst, float(np.max(np.abs(fast - slow))))
    ok = worst < 1e-12
    return ok, (f"max scan-vs-bruteforce diff = {worst:.3g} over {trials} "
                f"states, with no kink, a kink between nodes or one on a "
                f"node in turn")


def check_slope_factors(cfg, rng):
    special = np.pi * np.array([0.0, -0.0, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0,
                                3.0, -3.0])
    angles = np.concatenate((special, np.linspace(-7.0, 7.0, 2001),
                             rng.uniform(-7.0, 7.0, 2001)))
    grid = make_grid(-1.0, 1.0, angles.size)
    state = TransformedState(0.0, grid, np.stack(
        (np.zeros(grid.n), np.zeros(grid.n), angles, angles[::-1],
         np.ones(grid.n), grid.nodes)))
    # The forms built from the slopes: c = cos^2(angle/2), and
    # sin(angle) = 2 T c where the breaking checks need it.
    T, c = slope_factors(state)
    refs = np.cos(0.5 * state.data[2:4]) ** 2, np.sin(state.data[2:4])
    worst = max(float(np.max(np.abs(got - ref) / np.finfo(float).eps))
                for got, ref in zip((c, (2.0 * T) * c), refs))
    finite = bool(np.isfinite(T).all())
    return worst <= 4.0 and finite, (
        f"max |c, 2Tc - libm| = {worst:.3g} eps vs 4 eps over {angles.size} "
        f"angles in [-7, 7], T finite (+-pi included) {finite}")


def check_kernel_properties(cfg, rng):
    grid = make_grid(-8.0, 8.0, 256)
    state = random_state(rng, grid)
    G = kernel_accumulator(xi_derivatives(state)[0], grid)
    nondecreasing = bool(np.all(np.diff(G) >= 0.0))
    kernel = np.exp(-np.abs(G[:, None] - G[None, :]))
    diag_one = bool(np.all(np.diag(kernel) == 1.0))
    symmetric = bool(np.array_equal(kernel, kernel.T))
    in_range = bool(np.all((kernel > 0.0) & (kernel <= 1.0)))
    ok = nondecreasing and diag_one and symmetric and in_range
    return ok, (f"G nondecreasing={nondecreasing}, diag=1 {diag_one}, "
                f"symmetric={symmetric}, range={in_range}")


def check_swap_symmetry(cfg, rng):
    grid = make_grid(-8.0, 8.0, 256)
    state = random_state(rng, grid)
    swapped = state.with_fields(U=state.V, V=state.U, W=state.Z, Z=state.W)
    halves = assemble_sources(state)
    halves_sw = assemble_sources(swapped)
    # The U and V rows of each half are the V and U rows of the other's,
    # compared as bits so that a signed zero counts too.
    ok = all(np.array_equal(a.view(np.uint64), b[::-1].view(np.uint64))
             for a, b in zip(halves, halves_sw))
    return ok, "P<->S exchange under the variable swap is bitwise" if ok \
        else "swap symmetry broken"


def check_zero_state_rhs(cfg, rng):
    grid = make_grid(-8.0, 8.0, 256)
    zero = np.zeros(grid.n)
    state = TransformedState(0.0, grid, np.stack(
        (zero, zero, zero, zero, np.ones(grid.n), grid.nodes)))
    worst = float(np.max(np.abs(rhs(state))))
    return worst == 0.0, f"max |rhs(zero)| = {worst:.3g}"


def check_y0_round_trip(cfg, rng):
    n = 1024
    grid = make_grid(cfg.xi_min, cfg.xi_max, n)
    datum = cliio.datum_from_config(cfg)
    table = _density_table(datum, grid)
    y0 = _invert(table, grid)
    resid = np.abs(table.value(y0) - grid.nodes)
    worst = float(np.max(resid))
    ok = worst < 1e-12 and bool(np.all(np.diff(y0) > 0))
    return ok, f"max |F(y0)-xi| = {worst:.3g} over {n} nodes, y0 increasing"


def check_transform_identity(cfg, rng):
    grid = make_grid(cfg.xi_min, cfg.xi_max, 1025)
    datum = cliio.datum_from_config(cfg)
    state = transform_with_map(datum, grid)
    gap = np.abs(fd_derivative(state.y, grid, 1, state.kinks)
                 - xi_derivatives(state)[0])
    # y_xi jumps at the label xi_k of a datum kink, where the stencils
    # stop; a node on a label reads the mean of the two sides and is
    # skipped.
    skip = np.isin(np.arange(grid.n), kink_positions(state.kinks, grid))
    err = float(np.max(gap[~skip]))
    tol = 5.0 * grid.dx**2
    return err < tol, (f"max |fd(y0) - q cos2 cos2| = {err:.3g} vs {tol:.3g}, "
                       f"nodes on a kink skipped: {int(skip.sum())}")


def check_symmetric_evolution(cfg, rng):
    grid = make_grid(-10.0, 10.0, 512)
    datum = builtin_datum("gaussian_bump", {"a": 0.5, "width": 1.5})
    states = list(evolve(transform_with_map(datum, grid), 0.1, 0.01, 5))
    worst_u = max(float(np.max(np.abs(s.U - s.V))) for s in states)
    worst_w = max(float(np.max(np.abs(s.W - s.Z))) for s in states)
    ok = worst_u == 0.0 and worst_w == 0.0
    return ok, f"max|U-V| = {worst_u:.3g}, max|W-Z| = {worst_w:.3g} (bitwise)"


def check_euler_round_trip(cfg, rng):
    grid = make_grid(cfg.xi_min, cfg.xi_max, 1025)
    datum = cliio.datum_from_config(cfg)
    fld = euler_fields(transform_with_map(datum, grid))
    # Sample the graph on points of its own, not at its nodes x = y0,
    # where u = u0(y0) holds by construction.
    x = np.linspace(fld.x[0], fld.x[-1], 3003)[1:-1]
    u, v = sample_at(fld, x)
    err = float(max(np.max(np.abs(u - datum.u0(x))),
                    np.max(np.abs(v - datum.v0(x)))))
    tol = 10.0 * grid.dx**2 + 1e-12
    return err < tol, (f"max |(u, v) - (u0, v0)| at {x.size} x = {err:.3g} "
                       f"vs {tol:.3g}")


def check_measure_vs_eulerian(cfg, rng):
    grid = make_grid(-12.0, 12.0, 8193)
    datum = builtin_datum("gaussian_bump", {"a": 0.3, "width": 1.5})
    state = transform_with_map(datum, grid)
    fld = euler_fields(state)
    whole = measure_interval(state, float(state.y[0]), float(state.y[-1]))
    f = fld.ux**2 + fld.vx**2 + fld.ux**2 * fld.vx**2
    eulerian = float(np.sum(0.5 * (f[:-1] + f[1:]) * np.diff(fld.x)))
    rel = abs(whole - eulerian) / abs(eulerian)
    tol = 1e-6
    return rel < tol, f"relative gap = {rel:.3g} vs {tol:.3g}"


def check_conservation_short(cfg, rng):
    grid = make_grid(-12.0, 12.0, 1025)
    datum = builtin_datum("gaussian_bump", {"a": 0.4, "width": 1.5})
    traj = evolve(transform_with_map(datum, grid), 0.2, 0.005, record_every=10)
    for _ in traj:  # stepping fills the conserved log
        pass
    c0 = traj.conserved_log[0]
    worst = 0.0
    for c in traj.conserved_log[1:]:
        for name in ("E_u", "E_v", "G", "H"):
            ref = max(abs(getattr(c0, name)), 1e-12)
            worst = max(worst, abs(getattr(c, name) - getattr(c0, name)) / ref)
    tol = 1e-5
    return worst < tol, f"max relative drift = {worst:.3g} vs {tol:.3g}"


def check_norm_axioms(cfg, rng):
    grid = make_grid(-8.0, 8.0, 256)
    state = random_state(rng, grid)
    t1 = random_tangent(rng, grid)
    t2 = random_tangent(rng, grid)
    n1 = tangent_norm_info(state, t1).value
    n2 = tangent_norm_info(state, t2).value
    n_zero = tangent_norm_info(state, np.zeros((5, grid.n))).value
    homog = abs(tangent_norm_info(state, -2.5 * t1).value - 2.5 * n1)
    subadd = tangent_norm_info(state, t1 + t2).value - (n1 + n2)
    info = tangent_norm_info(state, t1, iters=120)
    descent_ok = info.value <= info.eta_zero_value
    # The converged norm is homogeneous too: the shifts are unbounded,
    # and the stop rule leaves a relative gap far below 1e-9.
    homog_c = abs(tangent_norm_info(state, 2.5 * t1, iters=120).value
                  - 2.5 * info.value) / info.value
    # The search ends at a minimum: no step of one shift coefficient,
    # on the scale of half the coarse spacing, lowers the value.
    c = info.best_coeffs
    half = 0.5 * (grid.xi_max - grid.xi_min) / (c.size - 1)
    gain = 0.0
    for j in range(c.size):
        for h in (-1e-2, -1e-4, 1e-4, 1e-2):
            moved = c.copy()
            moved[j] = c[j] + h * half
            gain = max(gain, 1.0 - shift_value(state, t1, moved) / info.value)
    ok = (n_zero == 0.0 and homog < 1e-12 * max(n1, 1.0)
          and subadd < 1e-12 and descent_ok and homog_c <= 1e-9
          and gain <= 1e-6)
    return ok, (f"zero={n_zero:.3g}, homogeneity gap={homog:.3g}, "
                f"subadditivity slack={subadd:.3g}, "
                f"descent {info.value:.6g} <= eta0 {info.eta_zero_value:.6g} "
                f"in {info.iterations} IRLS passes, converged homogeneity "
                f"gap {homog_c:.3g} <= 1e-09, "
                f"best coordinate step gain {gain:.3g} <= 1e-06")


def check_determinism(cfg, rng):
    grid = make_grid(-10.0, 10.0, 512)
    datum = builtin_datum("gaussian_bump", {"a": 0.5, "width": 1.5})

    def run_once() -> str:
        traj = evolve(transform_with_map(datum, grid), 0.1, 0.01,
                      record_every=5)
        for _ in traj:
            pass
        buf = io.StringIO()
        cliio.write_conserved_csv(buf, traj)
        return buf.getvalue()

    a, b = run_once(), run_once()
    return a == b, f"two runs produced {'identical' if a == b else 'DIFFERENT'} bytes"


def check_distance_identity(cfg, rng):
    grid = make_grid(-8.0, 8.0, 256)
    datum = builtin_datum("gaussian_bump", {"a": 0.4, "width": 1.5})
    state = transform_with_map(datum, grid)
    # Every node of the self-path has a zero tangent, so the shift
    # search must return exactly 0 too, seeds carried along the path
    # included.
    d_zero = distance_upper(state, state, m_theta=5)
    d_desc = distance_upper(state, state, m_theta=5,
                            iters=DEFAULT_DESCENT_ITERS)
    return (d_zero == d_desc == 0.0,
            f"d(U,U) = {d_zero:.3g} at eta = 0, {d_desc:.3g} by coarse descent")


# Where repr switches between positional and scientific form or changes
# its digit count, and the ends of the float64 range (the normal powers
# of two, whose rounding range is lopsided, join them in the check).
_REPR_EDGES = (1e-4, 1e-5, 9.999999999999999e-05, 1e15, 1e16,
               9999999999999998.0, 2.0 ** 53 + 2, 0.1, 0.5, 1.0, 123.0,
               5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               0.0, math.inf, math.nan)


def check_float_cells(cfg, rng):
    # The CSV writers format floats in numpy; every cell must be repr's
    # bytes. A platform whose float rounding differs fails here.
    bits = rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64)
    x = np.concatenate([_REPR_EDGES, np.ldexp(1.0, np.arange(-1022, 1024)),
                        bits.view(np.float64),
                        rng.standard_normal(10_000),
                        1e-13 * rng.standard_normal(10_000),
                        np.exp(rng.uniform(-700, 700, 10_000))])
    x = np.concatenate([x, -x])
    buf = io.StringIO()
    cliio._write_table(buf, ["x"], [x])
    got = buf.getvalue().split("\n")[1:-1]
    bad = sum(a != repr(b) for a, b in zip(got, x.tolist()))
    bad += abs(len(got) - x.size)
    return bad == 0, f"{x.size} cells, {bad} differ from repr"


_CHECKS = [
    ("prefix_vs_integrate", check_prefix_vs_integrate),
    ("fd_polynomial_exactness", check_fd_polynomial),
    ("scan_vs_bruteforce", check_scan_vs_bruteforce),
    ("slope_factors_vs_libm", check_slope_factors),
    ("kernel_properties", check_kernel_properties),
    ("swap_symmetry_bitwise", check_swap_symmetry),
    ("zero_state_fixed_point", check_zero_state_rhs),
    ("y0_round_trip", check_y0_round_trip),
    ("transform_identity_yxi", check_transform_identity),
    ("symmetric_evolution_bitwise", check_symmetric_evolution),
    ("euler_round_trip", check_euler_round_trip),
    ("measure_vs_eulerian", check_measure_vs_eulerian),
    ("conservation_short_run", check_conservation_short),
    ("norm_axioms", check_norm_axioms),
    ("distance_self_zero", check_distance_identity),
    ("determinism_rerun", check_determinism),
    ("float_cells_vs_repr", check_float_cells),
]


def run_suite(cfg: ScenarioConfig) -> list[CheckResult]:
    results = []
    for name, fn in _CHECKS:
        rng = np.random.default_rng(cfg.seed + zlib.crc32(name.encode()) % 100003)
        try:
            passed, detail = fn(cfg, rng)
        except NovlabError as err:
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results
