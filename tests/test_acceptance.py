"""End-to-end acceptance gate.

One test per criterion.  Each prints a labeled [PASS]/[FAIL] line with
the measured numbers (visible under pytest -s, and in the assertion
message on failure) and asserts the stated tolerance.

Known red: test_criterion_01b_drift_shrinks_with_dt.  At this grid the
conserved-quantity drift is a spatial floor: it falls 16x per grid
doubling and does not move with dt, so halving the step cannot shrink
it 8x.  The assertion is kept at full strength instead of being
weakened to match the implementation.
"""
import functools
import time

import numpy as np
import pytest

from novlab import (AnalysisError, ScenarioConfig, builtin_datum, classify,
                    conserved, crest_position, distance_upper, euler_fields,
                    evolve, fd_derivative, find_crossings, fit_exponent,
                    lipschitz_experiment, make_grid, measure_interval,
                    mirrored, pair_datum, sample_at, synthetic_case_state,
                    tangent_norm_info, transform_with_map,
                    verify_cancellations)
from novlab.cli import main as cli_main
from novlab.validation import (check_scan_vs_bruteforce, random_state,
                               random_tangent)

from conftest import two_bump_pair


def _check(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _max_drifts(traj):
    for _ in traj:  # the steps left fill the log
        pass
    c0 = traj.conserved_log[0]
    out = {}
    for name in ("E_u", "E_v", "G", "H"):
        ref = abs(getattr(c0, name))
        out[name] = max(abs(getattr(c, name) - getattr(c0, name)) / ref
                        for c in traj.conserved_log[1:])
    return out


@pytest.fixture(scope="module")
def conservation_runs():
    grid = make_grid(-20.0, 20.0, 2048)
    state = transform_with_map(two_bump_pair(), grid)
    start = time.perf_counter()
    traj = evolve(state, 2.0, 1e-3, record_every=250)
    states = list(traj)
    elapsed = time.perf_counter() - start
    traj_half = evolve(state, 2.0, 5e-4, record_every=500)
    return traj, traj_half, elapsed, states


def test_criterion_01a_conservation_drift(conservation_runs):
    traj, _, _, _ = conservation_runs
    drifts = _max_drifts(traj)
    detail = ", ".join(f"{k} {v:.3e}" for k, v in drifts.items())
    _check("criterion 1a (relative drift < 1e-6)",
           all(v < 1e-6 for v in drifts.values()), detail)


def test_criterion_01b_drift_shrinks_with_dt(conservation_runs):
    traj, traj_half, _, _ = conservation_runs
    full = _max_drifts(traj)
    half = _max_drifts(traj_half)
    ratios = {k: full[k] / half[k] for k in full}
    detail = ", ".join(f"{k} {v:.2f}x" for k, v in ratios.items())
    _check("criterion 1b (halving dt shrinks drift >= 8x)",
           min(ratios.values()) >= 8.0, detail)


def test_criterion_01c_runtime(conservation_runs):
    _, _, elapsed, _ = conservation_runs
    _check("criterion 1c (runtime < 2 min)", elapsed < 120.0,
           f"{elapsed:.1f} s")


# Criterion 1d: data, horizon and the least fall of the max drift from
# n = 512 to n = 1024, fixed before the run for a fourth-order kernel
# rule: 16x on smooth data and through the first breaking of the steep
# front (t ~ 1.54), and near second order at the peakon's kink.
SPATIAL_ORDER_CASES = {
    "two_bump": (two_bump_pair, 1.0, 12.0),
    "peakon": (lambda: builtin_datum("peakon", {"c": 1.0}), 1.0, 3.5),
    "steep_front": (lambda: pair_datum(
        builtin_datum("gaussian_bump", {"a": 2.0, "width": 1.0}),
        builtin_datum("gaussian_bump", {"a": 0.7, "width": 2.0})), 2.0, 12.0),
}


@functools.lru_cache(maxsize=None)
def _order_drift(case, n):
    # The max drift of the case on n nodes, dt = 2e-3.
    make_datum, t_final, _ = SPATIAL_ORDER_CASES[case]
    state = transform_with_map(make_datum(), make_grid(-20.0, 20.0, n))
    traj = evolve(state, t_final, 2e-3, record_every=50)
    return max(_max_drifts(traj).values())


def _order_drifts(case, sizes=(512, 1024)):
    return tuple(_order_drift(case, n) for n in sizes)


@pytest.mark.parametrize("case", sorted(SPATIAL_ORDER_CASES))
def test_criterion_01d_spatial_order(case):
    bound = SPATIAL_ORDER_CASES[case][2]
    drifts = _order_drifts(case)
    fall = drifts[0] / drifts[1]
    _check(f"criterion 1d (spatial order, {case})", fall >= bound,
           f"max drift {drifts[0]:.3e} at n=512, {drifts[1]:.3e} at n=1024: "
           f"{fall:.2f}x vs >= {bound}x")


# Criterion 1e: sixth order, where 1d asks for fourth.  The kernel rule
# is exact on quintics, so the drift falls 64x per doubling on smooth
# data and through the steep front's first breaking; the bound, fixed
# before the run, is 40x from n = 512 to 1024.
SIXTH_ORDER_BOUND = 40.0


@pytest.mark.parametrize("case", ["steep_front", "two_bump"])
def test_criterion_01e_sixth_order(case):
    drifts = _order_drifts(case)
    fall = drifts[0] / drifts[1]
    _check(f"criterion 1e (sixth order, {case})", fall >= SIXTH_ORDER_BOUND,
           f"max drift {drifts[0]:.3e} at n=512, {drifts[1]:.3e} at n=1024: "
           f"{fall:.2f}x vs >= {SIXTH_ORDER_BOUND}x")


# Criterion 1f: eighth order, where 1e asks for sixth.  The kernel rule
# is exact on polynomials of degree 7, so the drift falls 256x per
# doubling on smooth data and through the steep front's first breaking;
# the bound, fixed before the run, is 128x, from n = 512 to 1024 on the
# steep front and from n = 256 to 512 on two_bump, which meets the
# roundoff floor at n = 1024.
EIGHTH_ORDER_BOUND = 128.0
EIGHTH_ORDER_SIZES = {"steep_front": (512, 1024), "two_bump": (256, 512)}


@pytest.mark.parametrize("case", sorted(EIGHTH_ORDER_SIZES))
def test_criterion_01f_eighth_order(case):
    coarse, fine = sizes = EIGHTH_ORDER_SIZES[case]
    drifts = _order_drifts(case, sizes)
    fall = drifts[0] / drifts[1]
    _check(f"criterion 1f (eighth order, {case})", fall >= EIGHTH_ORDER_BOUND,
           f"max drift {drifts[0]:.3e} at n={coarse}, {drifts[1]:.3e} at "
           f"n={fine}: {fall:.2f}x vs >= {EIGHTH_ORDER_BOUND}x")


def test_criterion_02_scan_oracle_equivalence():
    ok, detail = check_scan_vs_bruteforce(ScenarioConfig(),
                                          np.random.default_rng(2024))
    _check("criterion 2 (linear scan vs quadratic oracle)", ok,
           f"{detail} vs 1e-12")


def test_criterion_03_identity_suite(conservation_runs):
    *_, states = conservation_runs
    grid = states[0].grid
    tol = 5.0 * grid.dx**2
    worst_y = worst_u = 0.0
    for state in states:
        # Independent libm factors: sin W and cos^2 of the half angles.
        sinW = np.sin(state.W)
        cw, cz = np.cos(0.5 * state.data[2:4]) ** 2
        gap_y = np.max(np.abs(fd_derivative(state.y, grid, 1)
                              - state.q * cw * cz))
        gap_u = np.max(np.abs(fd_derivative(state.U, grid, 1)
                              - 0.5 * state.q * sinW * cz))
        worst_y = max(worst_y, float(gap_y))
        worst_u = max(worst_u, float(gap_u))
    _check("criterion 3 (map and wave-slope identities)",
           worst_y < tol and worst_u < tol,
           f"map gap {worst_y:.3e}, slope gap {worst_u:.3e} vs {tol:.3e}")


def test_criterion_04_scalar_peakon():
    grid = make_grid(-20.0, 20.0, 2048)
    state = transform_with_map(builtin_datum("peakon", {"c": 1.0}), grid)
    e_u = conserved(state).E_u
    *_, last = evolve(state, 1.0, 1e-3, record_every=1000)
    field = euler_fields(last)
    x_star, _ = crest_position(field)
    _check("criterion 4 (unit-speed peaked wave)",
           abs(e_u - 2.0) < 1e-3 and abs(x_star - 1.0) < 0.01,
           f"E_u - 2 = {e_u - 2.0:.3e} vs 1e-3, "
           f"crest at t=1: {x_star:.5f} vs 1.0 +- 0.01")


@pytest.mark.parametrize("grids", [(512, 1024, 2048), (513, 1025, 2049)],
                         ids=["kink-between-nodes", "kink-on-a-node"])
def test_criterion_04b_peakon_nodes_match_the_exact_wave(grids):
    # The unit-speed peakon against the exact wave e^{-|y - t|} at t = 1,
    # max over the nodes with |y| < 8 of the U and V errors.  On odd
    # grids a node sits on the crest.  Bounds fixed before the run: a
    # fall of at least 16x per doubling, at most 1e-6 on the finest grid,
    # and no node of U above the crest 1 by more than 1e-6.
    datum = builtin_datum("peakon", {"c": 1.0})
    errors, tops = [], []
    for n in grids:
        state = transform_with_map(datum, make_grid(-20.0, 20.0, n))
        *_, last = evolve(state, 1.0, 2e-3, record_every=500)
        near = np.abs(last.y) < 8.0
        exact = np.exp(-np.abs(last.y[near] - 1.0))
        errors.append(float(max(np.max(np.abs(last.U[near] - exact)),
                                np.max(np.abs(last.V[near] - exact)))))
        tops.append(float(np.max(last.U)))
    falls = [a / b for a, b in zip(errors, errors[1:])]
    _check("criterion 4b (peakon nodes against the exact wave)",
           min(falls) >= 16.0 and errors[-1] <= 1e-6
           and max(tops) <= 1.0 + 1e-6,
           f"errors {', '.join(f'{e:.3e}' for e in errors)} at n = {grids}, "
           f"falls {', '.join(f'{f:.1f}x' for f in falls)} vs >= 16x, "
           f"max U {max(tops):.7f} vs <= 1 + 1e-6")


def test_criterion_05_symmetry_reductions():
    grid = make_grid(-16.0, 16.0, 1024)
    sym = builtin_datum("gaussian_bump",
                        {"a": 0.4, "center": 0.3, "width": 1.3})
    state = transform_with_map(pair_datum(sym, sym), grid)
    bitwise = all(np.array_equal(s.U, s.V) and np.array_equal(s.W, s.Z)
                  for s in evolve(state, 1.0, 2e-3, record_every=100))

    mir = mirrored(builtin_datum("gaussian_bump",
                                 {"a": 0.3, "center": -0.8, "width": 1.2}))
    state_m = transform_with_map(mir, grid)
    fwd = evolve(state_m, 1.0, 2e-3, record_every=100)
    bwd = evolve(state_m, -1.0, -2e-3, record_every=100)
    worst = worst_grid = 0.0
    for f, b in zip(fwd, bwd, strict=True):
        assert f.t == -b.t
        worst_grid = max(worst_grid, float(np.max(np.abs(f.y + b.y[::-1]))))
        worst = max(worst, float(np.max(np.abs(f.V - b.U[::-1]))))
    _check("criterion 5 (scalar and mirrored reductions)",
           bitwise and worst < 1e-8 and worst_grid < 1e-8,
           f"bitwise equal: {bitwise}, mirrored gap {worst:.3e}, "
           f"grid match {worst_grid:.3e} vs 1e-8")


@pytest.mark.parametrize("case,required", [
    (1, ("d1y_vanishes", "d2y_vanishes", "d3y_leading")),
    (3, ("d5y_leading",)),
    (8, ("d9y_leading",)),
])
def test_criterion_06_cancellation_identities(case, required):
    grid = make_grid(-10.0, 10.0, 1601)
    state = synthetic_case_state(case, grid)
    pts = find_crossings(state)
    pt = classify(min(pts, key=lambda p: abs(p.xi_star)), state)
    assert pt.case_label == case
    by_name = {c.name: c for c in verify_cancellations(pt, state).checks}
    ok = True
    details = []
    for name in required:
        c = by_name[name]
        tol = 1e-8 if c.kind == "vanish" else 1e-2
        ok = ok and c.rel_err < tol
        details.append(f"{name} rel {c.rel_err:.3e} vs {tol:g}")
    _check(f"criterion 6 (case {case} cancellations)", ok,
           "; ".join(details))


def _first_event_fit(datum, t_final, band):
    """Weighted exponent fit around the first detected level event.

    Each recorded slice is fitted at its own leading crossing; slices
    whose window lacks samples on a side are skipped.  Fits are
    averaged with r^2 weights over slices whose depth past first
    detection falls in the band, deep enough for the local power law
    to have emerged but before the window picks up neighbors.
    """
    grid = make_grid(-20.0, 20.0, 2048)
    state = transform_with_map(datum, grid)
    first_t = label = None
    rows = []
    for s in evolve(state, t_final, 5e-4, record_every=20):
        pts = find_crossings(s, tol_pi=1e-3)
        if not pts:
            continue
        if first_t is None:
            first_t = s.t
            label = classify(pts[0], s, tol_pi=1e-3).case_label
        field = euler_fields(s)
        try:
            alpha, r2 = fit_exponent(field, pts[0].x_star, 0.05, 5e-4,
                                     component="u")
        except AnalysisError:
            continue
        rows.append((s.t, alpha, r2))
    assert first_t is not None, "no level event detected"
    sel = [(a, r) for t, a, r in rows
           if band[0] - 1e-9 <= t - first_t <= band[1] + 1e-9]
    assert sel, "no usable fits inside the band"
    den = sum(r for _, r in sel)
    return first_t, label, sum(a * r for a, r in sel) / den


def test_criterion_07a_exponent_asymmetric_front():
    u = builtin_datum("gaussian_bump", {"a": 2.0, "width": 1.0})
    v = builtin_datum("gaussian_bump", {"a": 0.7, "width": 2.0})
    t0, label, alpha = _first_event_fit(pair_datum(u, v), 1.66, (0.04, 0.08))
    _check("criterion 7a (single-level event exponent)",
           label == 1 and abs(alpha - 2.0 / 3.0) < 0.1,
           f"case {label} at t={t0:.2f}, "
           f"fitted exponent {alpha:.4f} vs 2/3 +- 0.1")


def test_criterion_07b_exponent_symmetric_front():
    w = builtin_datum("gaussian_bump", {"a": 1.3, "width": 1.0})
    t0, label, alpha = _first_event_fit(w, 1.64, (0.14, 0.18))
    targets = {3: 4.0 / 5.0, 8: 7.0 / 9.0}
    target = targets.get(label)
    _check("criterion 7b (double-level event exponent)",
           target is not None and abs(alpha - target) < 0.1,
           f"case {label} at t={t0:.2f}, "
           f"fitted exponent {alpha:.4f} vs {target} +- 0.1")


def test_criterion_08_measure_consistency():
    grid = make_grid(-12.0, 12.0, 8193)
    datum = builtin_datum("gaussian_bump", {"a": 0.3, "width": 1.5})
    state = transform_with_map(datum, grid)
    worst = 0.0
    for s in evolve(state, 0.5, 1e-3, record_every=500):
        fld = euler_fields(s)
        dens = fld.ux**2 + fld.vx**2 + fld.ux**2 * fld.vx**2
        eulerian = float(np.trapezoid(dens, fld.x))
        whole = measure_interval(s, float(s.y[0]), float(s.y[-1]))
        worst = max(worst, abs(whole - eulerian) / abs(eulerian))
    _check("criterion 8 (measure vs physical-space integral)",
           worst < 1e-6, f"worst relative gap {worst:.3e} vs 1e-6")


def test_criterion_09a_metric_axioms():
    grid = make_grid(-16.0, 16.0, 512)
    base = builtin_datum("gaussian_bump", {"a": 0.5, "width": 1.5})
    near = builtin_datum("gaussian_bump", {"a": 0.501, "width": 1.5})
    s0 = transform_with_map(pair_datum(base, base), grid)
    s1 = transform_with_map(pair_datum(near, base), grid)
    self_d = distance_upper(s0, s0)
    d01 = distance_upper(s0, s1)
    d10 = distance_upper(s1, s0)
    sym_gap = abs(d01 - d10) / max(d01, d10)

    rng = np.random.default_rng(11)
    g = make_grid(-8.0, 8.0, 128)
    homo_gap = 0.0
    descent_ok = True
    for _ in range(6):
        st = random_state(rng, g)
        tan = random_tangent(rng, g)
        ref = tangent_norm_info(st, tan).value
        for lam in (-2.5, 0.5, 3.0):
            scaled = tangent_norm_info(st, lam * tan).value
            homo_gap = max(homo_gap, abs(scaled - abs(lam) * ref)
                           / (abs(lam) * ref))
        info = tangent_norm_info(st, tan, eta_nodes=9, iters=60)
        descent_ok = descent_ok and info.value <= info.eta_zero_value + 1e-12
    _check("criterion 9a (distance and norm axioms)",
           self_d == 0.0 and sym_gap < 1e-12 and homo_gap < 1e-12
           and descent_ok,
           f"self distance {self_d}, symmetry gap {sym_gap:.3e}, "
           f"homogeneity gap {homo_gap:.3e}, descent bounded: {descent_ok}")


def test_criterion_09b_lipschitz_stability():
    grid = make_grid(-16.0, 16.0, 512)
    base = builtin_datum("gaussian_bump", {"a": 0.5, "width": 1.5})
    tables = []
    for eps in (1e-3, 5e-4):
        pert = builtin_datum("gaussian_bump", {"a": 0.5 + eps, "width": 1.5})
        tables.append(lipschitz_experiment(
            pair_datum(base, base), pair_datum(pert, base), grid,
            1.0, 2e-3, record_every=100))
    finite = all(np.isfinite(r.ratio) and np.isfinite(r.d_t_upper)
                 for rows in tables for r in rows)
    variation = 0.0
    for ra, rb in zip(*tables):
        assert ra.t == rb.t
        variation = max(variation, abs(ra.ratio - rb.ratio) / rb.ratio)
    _check("criterion 9b (perturbation-size stability of ratios)",
           finite and variation < 0.10,
           f"finite: {finite}, ratio variation {variation:.3e} vs 0.10 "
           f"under eps halving")


DET_CFG = """\
schema = novlab-config/1
grid.xi_min = -16
grid.xi_max = 16
grid.n = 257
datum.u.family = gaussian_bump
datum.u.a = 0.5
datum.u.width = 1.5
time.t_final = 0.1
time.dt = 0.01
time.record_every = 5
"""


def test_criterion_10a_byte_identical_reruns(tmp_path):
    cfgfile = tmp_path / "det.cfg"
    cfgfile.write_text(DET_CFG)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli_main(["evolve", "--config", str(cfgfile),
                       "--out", str(out)])
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    same = names == sorted(p.name for p in outs[1].iterdir()) and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in names)
    _check("criterion 10a (byte-identical reruns)", same,
           f"{len(names)} artifacts compared byte for byte")


def test_criterion_10b_transform_round_trip():
    grid = make_grid(-16.0, 16.0, 1024)
    datum = two_bump_pair()
    field = euler_fields(transform_with_map(datum, grid))
    # Off the graph's nodes x = y0, where u = u0(y0) holds by construction.
    x = np.linspace(field.x[0], field.x[-1], 3003)[1:-1]
    u, v = sample_at(field, x)
    tol = 10.0 * grid.dx**2
    gap_u = float(np.max(np.abs(u - datum.u0(x))))
    gap_v = float(np.max(np.abs(v - datum.v0(x))))
    _check("criterion 10b (transform round trip)",
           gap_u < tol and gap_v < tol,
           f"u gap {gap_u:.3e}, v gap {gap_v:.3e} vs {tol:.3e}")
