"""Level-crossing detection, case classification, and exponent fits."""
import json

import numpy as np
import pytest

from novlab import breaking
from novlab import (AnalysisError, classify, fd_derivative, find_crossings,
                    fit_exponent, make_grid, synthetic_case_state,
                    verify_cancellations)
from novlab.cliio import write_jsonl
from novlab.reconstruct import EulerField
from novlab.sources import xi_derivatives

from conftest import same_bits


GRID = make_grid(-10.0, 10.0, 1601)


def designed_point(case):
    state = synthetic_case_state(case, GRID)
    pts = find_crossings(state)
    assert pts, f"case {case}: no crossing detected"
    best = min(pts, key=lambda p: abs(p.xi_star))
    assert abs(best.xi_star) < 2 * GRID.dx
    return state, best


@pytest.mark.parametrize("case", range(1, 9))
def test_patch_reports_equal_full_row_reports_bitwise(case, monkeypatch):
    # A margin as wide as the grid makes every patch the whole grid, so
    # the second pass differentiates full rows.
    state = synthetic_case_state(case, GRID)
    swapped = state.with_fields(U=state.V, V=state.U, W=state.Z, Z=state.W)
    runs = []
    for margin in (breaking._PATCH_MARGIN, GRID.n):
        monkeypatch.setattr(breaking, "_PATCH_MARGIN", margin)
        run = []
        for st in (state, swapped):
            points = [classify(p, st) for p in find_crossings(st)]
            run.append((points, [verify_cancellations(p, st) for p in points]))
        runs.append(repr(run))
    # repr spells every float exactly, the sign of zero included.
    assert runs[0] == runs[1]


def test_verify_cancellations_forms_the_slopes_once(monkeypatch):
    # The analytic derivatives and the local data share one evaluation.
    from novlab import sources
    state, pt = designed_point(3)
    point = classify(pt, state)
    calls = []
    real = sources.slope_factors

    def counted(st):
        calls.append(st)
        return real(st)

    monkeypatch.setattr(breaking, "slope_factors", counted)
    monkeypatch.setattr(sources, "slope_factors", counted)
    verify_cancellations(point, state)
    assert len(calls) == 1


@pytest.mark.parametrize("center, half", [(0, 3), (2, 5), (30, 4), (61, 6),
                                          (63, 0), (20, 40)])
def test_patch_derivatives_equal_full_rows_bitwise(center, half):
    # Patches inside the grid, at either edge and wider than the grid;
    # only the 3 nodes next to an end cut inside the grid may differ.
    # The same holds with a kink between two nodes or on one.
    g = make_grid(-3.0, 3.0, 64)
    rows = np.random.default_rng(center).normal(size=(2, g.n))
    orders = (1, 2, 3, 4)
    for kinks in ((), (float(g.nodes[center] + 0.37 * g.dx),),
                  (float(g.nodes[max(center - 2, 1)]),)):
        patch, win, derivs = breaking._patch_derivatives(
            rows, g, float(g.nodes[center]), half, orders, kinks)
        lo = patch.start + (3 if patch.start > 0 else 0)
        hi = patch.stop - (3 if patch.stop < g.n else 0)
        assert lo <= patch.start + win.start and patch.start + win.stop <= hi
        for order, local in zip(orders, derivs):
            assert same_bits(local[:, lo - patch.start:hi - patch.start],
                             fd_derivative(rows, g, order, kinks)[:, lo:hi])


@pytest.mark.parametrize("case", range(1, 9))
def test_classification_recovers_designed_case(case):
    state, pt = designed_point(case)
    labeled = classify(pt, state)
    assert labeled.case_label == case
    assert not labeled.degenerate


@pytest.mark.parametrize("case", range(1, 9))
def test_cancellation_checks_within_tolerance(case):
    # Every check the FD ceiling allows must hold: claimed-zero entries
    # vanish relative to their local scale and leading coefficients
    # match the predicted products of W, Z derivatives.
    state, pt = designed_point(case)
    rep = verify_cancellations(classify(pt, state), state)
    assert rep.case_label == case
    assert rep.checks
    for c in rep.checks:
        tol = 1e-5 if c.kind == "vanish" else 1e-2
        assert c.rel_err < tol, (case, c.name, c.rel_err)


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
def test_low_order_cases_report_complete(case):
    state, pt = designed_point(case)
    rep = verify_cancellations(classify(pt, state), state)
    assert rep.complete


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
def test_some_low_derivative_of_y_survives(case):
    # At every detected point some xi-derivative of y of order 2..5
    # stays at order one relative to its 40-node neighborhood, so y_xi
    # vanishes there to finite order only.
    state, pt = designed_point(case)
    y_xi, _, _ = xi_derivatives(state)
    i = int(round((pt.xi_star - GRID.xi_min) / GRID.dx))
    win = slice(i - 40, i + 41)
    ratios = []
    for order in (1, 2, 3, 4):
        d = fd_derivative(y_xi, GRID, order)
        at_point = np.interp(pt.xi_star, GRID.nodes, d)
        ratios.append(abs(at_point) / np.max(np.abs(d[win])))
    assert max(ratios) > 0.05, (case, ratios)


@pytest.mark.parametrize("case", range(1, 9))
def test_classify_keeps_the_values_find_crossings_set(case):
    # classify reads the angle values and slopes at the point and
    # changes none of them; its margins report the same slopes.
    state, pt = designed_point(case)
    labeled = classify(pt, state)
    for name in ("w_value", "z_value", "w_xi", "z_xi"):
        bits = np.float64(getattr(pt, name)).tobytes()
        assert np.float64(getattr(labeled, name)).tobytes() == bits, name
    for name in ("w_xi", "z_xi"):
        assert (np.float64(labeled.margins[name]).tobytes()
                == np.float64(getattr(pt, name)).tobytes()), name


SWAP_UV = str.maketrans("UV", "VU")


@pytest.mark.parametrize("case,partner", [(1, 2), (2, 1), (3, 3), (4, 5),
                                          (5, 4), (6, 7), (7, 6), (8, 8)])
def test_case_labels_swap_with_components(case, partner):
    # Exchanging the two components maps each case to its mirror, and
    # its cancellation report to the mirrored report: the same checks
    # with U and V exchanged (in the same order unless the case is its
    # own mirror) and the same leading coefficients up to rounding.
    state, pt = designed_point(case)
    swapped = state.with_fields(U=state.V, V=state.U, W=state.Z, Z=state.W)
    pts = find_crossings(swapped)
    best = classify(min(pts, key=lambda p: abs(p.xi_star)), swapped)
    assert best.case_label == partner
    rep = verify_cancellations(classify(pt, state), state)
    rep_sw = verify_cancellations(best, swapped)
    assert rep_sw.case_label == partner
    names = [c.name.translate(SWAP_UV) for c in rep.checks]
    names_sw = [c.name for c in rep_sw.checks]
    if case == partner:
        names, names_sw = sorted(names), sorted(names_sw)
    assert names_sw == names
    mirror = {c.name.translate(SWAP_UV): c for c in rep.checks}
    for c in rep_sw.checks:
        if c.kind == "leading":
            ref = mirror[c.name]
            tol = 1e-12 * abs(ref.claimed)
            assert abs(c.claimed - ref.claimed) <= tol, c.name
            assert abs(c.measured - ref.measured) <= tol, c.name


def synthetic_power_field(power, n=4001, span=2.0):
    x = np.linspace(-span, span, n)
    u = 1.0 - np.abs(x) ** power
    ones = np.ones_like(x)
    tv = np.ones_like(x, dtype=bool)
    return EulerField(x=x, u=u, v=u, ux=ones, vx=ones,
                      ux_valid=tv, vx_valid=tv)


def test_fit_exponent_power_law_oracles():
    # Known pure power laws must come back within a few percent.
    for power in (2.0 / 3.0, 1.0, 0.8):
        fld = synthetic_power_field(power)
        alpha, r2 = fit_exponent(fld, 0.0, side_window=0.5, min_gap=1e-3)
        assert alpha == pytest.approx(power, abs=0.02), power
        assert r2 > 0.999


def test_fit_exponent_smooth_field_near_one():
    # Where the slope of a smooth field is nonzero its local exponent is
    # 1; the fit must not report a sub-Lipschitz modulus there.
    x = np.linspace(-2.0, 2.0, 4001)
    u = np.exp(-(x**2))
    ones = np.ones_like(x)
    tv = np.ones_like(x, dtype=bool)
    fld = EulerField(x=x, u=u, v=u, ux=ones, vx=ones,
                     ux_valid=tv, vx_valid=tv)
    alpha, r2 = fit_exponent(fld, 0.5, side_window=0.1, min_gap=1e-3)
    assert alpha == pytest.approx(1.0, abs=0.02)
    assert r2 > 0.999


def test_fit_exponent_requires_enough_samples():
    fld = synthetic_power_field(1.0, n=41)
    with pytest.raises(AnalysisError):
        fit_exponent(fld, 0.0, side_window=0.2, min_gap=0.15)


def test_fit_exponent_component_selects_field():
    fld64 = synthetic_power_field(0.5)
    v = 1.0 - np.abs(fld64.x) ** 0.9
    fld = EulerField(x=fld64.x, u=fld64.u, v=v, ux=fld64.ux, vx=fld64.vx,
                     ux_valid=fld64.ux_valid, vx_valid=fld64.vx_valid)
    au, _ = fit_exponent(fld, 0.0, 0.5, 1e-3, component="u")
    av, _ = fit_exponent(fld, 0.0, 0.5, 1e-3, component="v")
    assert au == pytest.approx(0.5, abs=0.02)
    assert av == pytest.approx(0.9, abs=0.02)


def test_write_jsonl_points_round_trip(tmp_path):
    state, pt = designed_point(1)
    labeled = classify(pt, state)
    path = tmp_path / "points.jsonl"
    write_jsonl([labeled], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["case_label"] == 1
    assert rec["curve"] in ("W", "Z", "both")
    assert rec["fitted_exponent_u"] is None
    assert isinstance(rec["margins"], dict)


def test_find_crossings_clean_state_has_none(smooth_pair_state):
    assert find_crossings(smooth_pair_state) == []
