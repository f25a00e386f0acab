"""Reconstruction of physical-space fields and the energy measure."""
import re
from dataclasses import astuple

import numpy as np
import pytest

from novlab import (AnalysisError, ContractError, OmegaBounds, QueryError,
                    builtin_datum, conserved, conserved_euler, euler_fields,
                    crest_position, evolve, integrate, make_grid,
                    measure_interval, pair_datum, sample_at,
                    transform_with_map)
from novlab.reconstruct import EulerField, MASK_TOL, _measure_density
from novlab.validation import random_state

from conftest import flat_state, same_bits, two_bump_pair, wide_random_state

BOUNDS = OmegaBounds(0.01, 100.0, 1.5)


def test_euler_fields_rejects_corrupt_map(smooth_pair_state):
    y = smooth_pair_state.y.copy()
    y[100] = y[99] - 1.0
    with pytest.raises(ContractError):
        euler_fields(smooth_pair_state.with_fields(y=y))


def test_euler_fields_flattens_integration_noise(smooth_pair_state):
    # Dips below the corruption threshold are treated as time-stepping
    # noise and flattened so the graph stays nondecreasing.
    y = smooth_pair_state.y.copy()
    y[200] = y[199] - 1e-9
    fld = euler_fields(smooth_pair_state.with_fields(y=y))
    assert np.all(np.diff(fld.x) >= 0)


def steep_front_state(n):
    u = builtin_datum("gaussian_bump", {"a": 2.0, "width": 1.0})
    v = builtin_datum("gaussian_bump", {"a": 0.7, "width": 2.0})
    return transform_with_map(pair_datum(u, v), make_grid(-20.0, 20.0, n))


def with_dip(state, cell, delta):
    y = state.y.copy()
    y[cell + 1] = y[cell] - delta
    return state.with_fields(y=y)


def test_euler_fields_dip_tolerance_follows_the_grid():
    # The quick steep_front map dips by 6.5e-5 at n = 257, spatial noise
    # of order dx^3 that the 257-node graph accepts.  On a grid 8x finer
    # the same dip is above both dx^3 and 1e-6 of the span and raises,
    # and so do an order-one dip and one of 2 dx^3 on the coarse grid.
    coarse, fine = steep_front_state(257), steep_front_state(2049)
    fld = euler_fields(with_dip(coarse, 149, 6.521e-5))
    assert np.all(np.diff(fld.x) >= 0)
    for state, delta in ((fine, 6.521e-5), (coarse, 1.0),
                         (coarse, 2.0 * coarse.grid.dx ** 3)):
        with pytest.raises(ContractError, match="y decreases at cell"):
            euler_fields(with_dip(state, state.grid.n // 2, delta))


def test_slope_masks_fire_near_level_crossings():
    # Push W to pi on a band of nodes: tan(W/2) blows up there, so the
    # u-slope must be masked while the v-slope stays valid.
    rng = np.random.default_rng(9)
    g = make_grid(-8.0, 8.0, 256)
    base = random_state(rng, g)
    W = base.W.copy()
    W[100:110] = np.pi
    state = base.with_fields(W=W, Z=np.zeros(g.n))
    fld = euler_fields(state)
    assert not fld.ux_valid[100:110].any()
    assert fld.vx_valid.all()
    assert np.all(np.isfinite(fld.ux[fld.ux_valid]))


@pytest.mark.parametrize(
    "tol", [MASK_TOL, 1e-3, 1e-12, 0.05, 0.0, -MASK_TOL, 1e-170, 1.0, 2.0,
            1e200])
def test_slope_masks_equal_the_cosine_test(tol):
    # The masks come from the tangent the slopes need, tol |tol| (1 + T^2)
    # against 1, and must flag exactly the nodes where |cos(angle/2)| < tol:
    # thousands of ulps around each threshold angle, at and near +-pi, at
    # non-finite angles and at random ones.  The tolerances cover the
    # negative one that accepts every finite slope, one whose square
    # underflows and one whose square overflows.
    edge = 2.0 * np.arccos(np.clip(tol, 0.0, 1.0))
    ulps = np.arange(-2000, 2001)
    angles = np.concatenate(
        [c + ulps * np.spacing(c)
         for c in (edge, 2.0 * np.pi - edge, 2.0 * np.pi + edge, np.pi)]
        + [np.array([np.nan, np.inf, -np.inf, 0.0, -0.0]),
           np.random.default_rng(4).uniform(-10.0, 10.0, 20000)])
    g = make_grid(-1.0, 1.0, angles.size)
    with np.errstate(invalid="ignore"):
        fld = euler_fields(flat_state(g).with_fields(W=angles, Z=-angles),
                           mask_tol=tol)
        expected = np.abs(np.cos(0.5 * angles)) >= tol
        assert same_bits(fld.ux, np.where(expected, np.tan(0.5 * angles),
                                          np.nan))
    assert np.array_equal(fld.ux_valid, expected)
    assert np.array_equal(fld.vx_valid, expected)
    assert expected.sum() < expected.size
    assert (expected.sum() > 0) == (tol <= 1.0)


def test_conserved_euler_requires_smooth_regime():
    rng = np.random.default_rng(10)
    g = make_grid(-8.0, 8.0, 256)
    base = random_state(rng, g)
    W = base.W.copy()
    W[128] = np.pi
    state = base.with_fields(W=W)
    with pytest.raises(AnalysisError):
        conserved_euler(euler_fields(state))


def test_conserved_euler_names_each_masked_x_range():
    # Runs at both ends and one inside, the inner one joined from the u
    # and v masks; each range runs from its first to its last node.
    x = np.linspace(0.0, 4.5, 10)
    ux_valid, vx_valid = np.ones((2, x.size), dtype=bool)
    ux_valid[[0, 1, 4, 5, 9]] = False
    vx_valid[[1, 6]] = False
    field = EulerField(x, x, x, x, x, ux_valid, vx_valid)
    ranges = "[(0.0, 0.5), (2.0, 3.0), (4.5, 4.5)]"
    with pytest.raises(AnalysisError, match=re.escape(f"x-ranges {ranges};")):
        conserved_euler(field)


def test_conserved_matches_eulerian_route(smooth_grid, smooth_pair_state):
    # Change-of-variables oracle: the stretched-coordinate quadratures
    # must agree with integrating the reconstructed fields in x.
    state = smooth_pair_state
    lag = conserved(state)
    eul = conserved_euler(euler_fields(state))
    for f in ("E_u", "E_v", "G", "H"):
        a, b = getattr(lag, f), getattr(eul, f)
        assert abs(a - b) <= 1e-5 * max(abs(a), 1e-12), f


def test_sample_at_interpolates_and_bounds_checks(smooth_pair_state):
    fld = euler_fields(smooth_pair_state)
    u0, v0 = sample_at(fld, 0.0)
    datum = two_bump_pair()
    assert u0 == pytest.approx(float(datum.u0(0.0)), abs=1e-4)
    assert v0 == pytest.approx(float(datum.v0(0.0)), abs=1e-4)
    us, vs = sample_at(fld, np.array([-1.0, 0.0, 1.0]))
    assert us.shape == (3,)
    with pytest.raises(QueryError):
        sample_at(fld, 1e9)
    with pytest.raises(QueryError, match=r"^x=nan outside"):
        sample_at(fld, np.nan)
    with pytest.raises(QueryError, match=r"^x=nan outside"):
        sample_at(fld, np.array([0.0, np.nan]))


def test_sample_at_plateau_resolves_leftmost():
    # A flat stretch of x encodes a vertical segment of the graph; point
    # queries must return the left edge value.
    from novlab.reconstruct import EulerField
    x = np.array([0.0, 1.0, 1.0, 1.0, 2.0])
    u = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    ones = np.ones_like(x)
    tv = np.ones_like(x, dtype=bool)
    fld = EulerField(x=x, u=u, v=u, ux=ones, vx=ones,
                     ux_valid=tv, vx_valid=tv)
    uq, _ = sample_at(fld, 1.0)
    assert uq == 10.0


def _libm_factors(state):
    # cos^2 and sin^2 of the half angles and sin of the angles, from
    # np.cos and np.sin, as (2, n) pairs with rows W and Z.
    half = 0.5 * state.data[2:4]
    return np.cos(half) ** 2, np.sin(half) ** 2, np.sin(state.data[2:4])


def test_measure_density_pointwise_identity():
    # (ux^2 + vx^2 + ux^2 vx^2) y_xi equals q (cw sz + sw cz + sw sz)
    # from libm; both sides are polynomial in the half-angle factors so
    # this is exact up to rounding.
    rng = np.random.default_rng(11)
    g = make_grid(-8.0, 8.0, 512)
    state = random_state(rng, g)
    (cw, cz), (sw, sz), _ = _libm_factors(state)
    dens = _measure_density(state)
    rhs = state.q * (cw * sz + sw * cz + sw * sz)
    assert np.max(np.abs(dens - rhs)) < 1e-12 * max(1.0, float(np.max(np.abs(dens))))


def _libm_conserved(state):
    # The four functionals in the trig form, from libm factors.
    (cw, cz), (sw, sz), (sinW, sinZ) = _libm_factors(state)
    U, V, q = state.U, state.V, state.q
    return (q * (U * U * cw + sw) * cz, q * (V * V * cz + sz) * cw,
            q * (U * V * cw * cz + 0.25 * sinW * sinZ),
            q * (3.0 * U * U * V * V * cw * cz + U * U * cw * sz
                 + V * V * sw * cz + U * V * sinW * sinZ - sw * sz))


# Angles at and next to the poles of u_x = tan(angle/2): the doubles
# nearest +-pi, one ulp above pi, and one ulp inside +-3pi/2.
POLE_ANGLES = np.array([np.pi, -np.pi, np.nextafter(np.pi, 4.0),
                        np.nextafter(1.5 * np.pi, 0.0),
                        -np.nextafter(1.5 * np.pi, 0.0)])


@pytest.mark.parametrize("n", [64, 512, 2048])
def test_slope_form_densities_stay_finite_and_match_libm_at_the_poles(n):
    # Every 7th node carries a pair of pole angles, all 25 pairs in
    # turn; y_xi times the Eulerian density stays finite there, and
    # close to the trig form from libm: the integrals within 16 eps of
    # the largest |functional|, the measure density within 4 eps of its
    # largest |value| at every node.
    eps = np.finfo(float).eps
    base = wide_random_state(n, seed=n + 3)
    W, Z = base.W.copy(), base.Z.copy()
    k = W[::7].size
    W[::7] = np.resize(np.repeat(POLE_ANGLES, 5), k)
    Z[::7] = np.resize(np.tile(POLE_ANGLES, 5), k)
    state = base.with_fields(W=W, Z=Z)
    got = np.array(astuple(conserved(state)))
    ref = np.array([integrate(f, state.grid) for f in _libm_conserved(state)])
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - ref)) <= 16.0 * eps * np.max(np.abs(ref))
    (cw, cz), (sw, sz), _ = _libm_factors(state)
    dens = _measure_density(state)
    ref_dens = state.q * (cw * sz + sw * cz + sw * sz)
    assert np.isfinite(dens).all()
    assert np.max(np.abs(dens - ref_dens)) <= 4.0 * eps * np.max(ref_dens)


def test_measure_interval_additive_and_bounded(smooth_pair_state):
    state = smooth_pair_state
    a, b, c = -4.0, 0.5, 5.0
    m_ab = measure_interval(state, a, b)
    m_bc = measure_interval(state, b, c)
    m_ac = measure_interval(state, a, c)
    assert m_ab >= 0.0 and m_bc >= 0.0
    assert m_ac == pytest.approx(m_ab + m_bc, abs=1e-12)
    assert measure_interval(state, 1e6, 2e6) == 0.0
    with pytest.raises(ContractError):
        measure_interval(state, 1.0, -1.0)


def test_crest_position_peakon_initial():
    # The crest finder must beat the one-cell argmax bias by orders of
    # magnitude on an exponential peak.
    g = make_grid(-20.0, 20.0, 2048)
    datum = builtin_datum("peakon", {"c": 1.0, "center": 0.0})
    fld = euler_fields(transform_with_map(datum, g))
    x_star, f_star = crest_position(fld, "u")
    assert abs(x_star) < 1e-3
    assert f_star == pytest.approx(1.0, abs=1e-3)


def test_crest_position_tracks_traveling_peakon():
    # Traveling-wave oracle: u(t, x) = e^{-|x - t|} moves at unit speed.
    g = make_grid(-20.0, 20.0, 2048)
    datum = builtin_datum("peakon", {"c": 1.0, "center": 0.0})
    state0 = transform_with_map(datum, g)
    *_, last = evolve(state0, 0.5, 1e-3, record_every=500, bounds=BOUNDS)
    fld = euler_fields(last)
    x_star, f_star = crest_position(fld, "u")
    assert x_star == pytest.approx(0.5, abs=5e-3)
    assert f_star == pytest.approx(1.0, abs=5e-3)
