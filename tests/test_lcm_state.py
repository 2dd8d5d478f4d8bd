"""Tests for the per-path correlation state inversion."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcorr.corrfam import CorrelationFamily
from localcorr.errors import CorrelationError
from localcorr.lcm.state import (
    U_MAX,
    _band,
    check_dispersion_bounds,
    covariance_terms,
    solve_state,
)

from helpers import random_correlation


def _two_equal_terms(index_vol):
    """Two equal assets, alpha = 0.5 each, spot 100, vol 20%, center 0.5."""
    fam = CorrelationFamily(center=np.array([[1.0, 0.5], [0.5, 1.0]]))
    terms = covariance_terms(
        spots=np.array([[100.0, 100.0]]),
        vols=np.array([[0.2, 0.2]]),
        weights=np.array([0.5, 0.5]),
        index_vol=index_vol,
        family=fam,
    )
    return fam, terms


def test_hand_worked_quadratic_forms():
    """a_i = 0.5 * 100 * 0.2 = 10, so the anchor forms are 300/400/200."""
    fam, terms = _two_equal_terms(index_vol=np.sqrt(350.0) / 100.0)
    assert np.allclose(terms.a, 10.0)
    assert abs(terms.cov_center[0] - 300.0) < 1e-10
    assert abs(terms.diag[0] - 200.0) < 1e-10
    assert abs(terms.cov_up[0] - 400.0) < 1e-10
    assert abs(terms.cov_down[0] - 200.0) < 1e-10
    assert abs(terms.target[0] - 350.0) < 1e-9


def test_hand_worked_raising_root():
    """Target 350 sits halfway between center 300 and limit 400, so u = 1."""
    fam, terms = _two_equal_terms(index_vol=np.sqrt(350.0) / 100.0)
    sol = solve_state(terms, fam)
    assert sol.kappa[0] == 1
    assert abs(sol.u[0] - 1.0) < 1e-12
    assert sol.n_violations == 0
    mat = fam.evaluate(sol.u[0], 1)
    assert abs(mat[0, 1] - 0.75) < 1e-14


def test_hand_worked_lowering_root_and_shortcut():
    """Target 250: exact root u = 1; the shortcut root is sqrt(0.2) instead."""
    fam, terms = _two_equal_terms(index_vol=np.sqrt(250.0) / 100.0)
    sol = solve_state(terms, fam, track_simplified=True)
    assert sol.kappa[0] == 0
    assert abs(sol.u[0] - 1.0) < 1e-12
    assert sol.signed[0] == -sol.u[0]
    # (cov_center - target) / target = 50 / 250
    assert abs(sol.simplified_u[0] - np.sqrt(0.2)) < 1e-14
    mat = fam.evaluate(sol.u[0], 0)
    assert abs(mat[0, 1] - 0.25) < 1e-14


def test_center_target_gives_zero_state():
    fam, terms = _two_equal_terms(index_vol=np.sqrt(300.0) / 100.0)
    sol = solve_state(terms, fam)
    assert sol.u[0] == 0.0
    assert sol.n_violations == 0


def _random_terms(rng, n_paths, fam, band=(0.02, 0.98)):
    """Loadings plus targets drawn strictly inside the reachable band."""
    n = fam.n_assets
    spots = rng.uniform(20.0, 200.0, size=(n_paths, n))
    vols = rng.uniform(0.1, 0.5, size=(n_paths, n))
    weights = rng.uniform(0.2, 1.5, size=n)
    weights = weights / weights.sum()
    a = spots * vols * weights[None, :]
    low = np.einsum("pi,ij,pj->p", a, fam.limit(0), a)
    high = np.einsum("pi,ij,pj->p", a, fam.limit(1), a)
    frac = rng.uniform(*band, size=n_paths)
    target = low + frac * (high - low)
    basket = spots @ weights
    index_vol = np.sqrt(target) / basket
    return covariance_terms(spots, vols, weights, index_vol, fam)


def test_exact_root_reprices_target_flat_mode(rng):
    """10,000 random bounded states: evaluated covariance hits the target."""
    total = 0
    for center_rho in (0.0, 0.3, 0.6):
        n = 5
        center = np.full((n, n), center_rho)
        np.fill_diagonal(center, 1.0)
        fam = CorrelationFamily(center=center)
        terms = _random_terms(rng, 4000, fam)
        sol = solve_state(terms, fam)
        assert sol.n_violations == 0
        cov = fam.quad_form(terms.a, sol.u, sol.kappa)
        rel = np.abs(cov - terms.target) / terms.target
        assert np.max(rel) < 1e-10
        total += terms.target.size
    assert total >= 10_000


def test_exact_root_reprices_target_structured_center(rng):
    fam = CorrelationFamily(center=random_correlation(rng, 6))
    terms = _random_terms(rng, 2000, fam)
    sol = solve_state(terms, fam)
    cov = fam.quad_form(terms.a, sol.u, sol.kappa)
    rel = np.abs(cov - terms.target) / terms.target
    assert np.max(rel) < 1e-10


def test_raising_root_matches_ratio_formula(rng):
    """The closed-form raising state is (target-c0)/(c_up-target) in u^2."""
    fam = CorrelationFamily(center=random_correlation(rng, 4))
    terms = _random_terms(rng, 3000, fam)
    sol = solve_state(terms, fam)
    up = sol.kappa == 1
    expected = np.sqrt(
        (terms.target[up] - terms.cov_center[up]) / (terms.cov_up[up] - terms.target[up])
    )
    assert np.max(np.abs(sol.u[up] - expected)) < 1e-12


def test_shortcut_root_differs_whenever_diag_positive(rng):
    """The lowering shortcut ignores the diagonal mass and is always low."""
    center = np.full((5, 5), 0.6)
    np.fill_diagonal(center, 1.0)
    fam = CorrelationFamily(center=center)
    terms = _random_terms(rng, 3000, fam)
    sol = solve_state(terms, fam, track_simplified=True)
    down = sol.kappa == 0
    assert np.count_nonzero(down) > 100
    exact = sol.u[down]
    shortcut = sol.simplified_u[down]
    assert np.all(np.isfinite(shortcut))
    assert np.all(terms.diag[down] > 0)
    # strictly smaller than the exact root whenever the target is not the center
    moved = exact > 1e-8
    assert np.all(shortcut[moved] < exact[moved])
    assert np.max(np.abs(shortcut[moved] - exact[moved]) / exact[moved]) > 1e-3


def test_bisection_agrees_with_closed_form(rng):
    """A non-flat mode very close to flat reproduces the flat-mode roots."""
    center = random_correlation(rng, 4)
    fam_flat = CorrelationFamily(center=center)
    fam_near = CorrelationFamily(center=center, mode=np.full(4, 1.0 + 1e-12))
    assert not fam_near.flat_mode
    terms = _random_terms(rng, 500, fam_flat)
    sol_flat = solve_state(terms, fam_flat)
    sol_near = solve_state(terms, fam_near)
    # the Newton solve stops at a residual within 1e-14 of the branch limit
    assert np.max(np.abs(sol_flat.u - sol_near.u)) < 1e-8
    assert np.array_equal(sol_flat.kappa, sol_near.kappa)


def test_non_flat_mode_roots_reprice(rng):
    fam = CorrelationFamily(
        center=random_correlation(rng, 4), mode=np.array([0.5, 1.0, 1.5, 2.0])
    )
    terms = _random_terms(rng, 800, fam)
    sol = solve_state(terms, fam)
    cov = fam.quad_form(terms.a, sol.u, sol.kappa)
    rel = np.abs(cov - terms.target) / terms.target
    assert np.max(rel) < 1e-8


def _random_family(gen, n, flat, custom_up, custom_down):
    return CorrelationFamily(
        center=random_correlation(gen, n),
        mode=None if flat else gen.uniform(0.2, 5.0, size=n),
        up=random_correlation(gen, n) if custom_up else None,
        down=random_correlation(gen, n) if custom_down else None,
    )


def _random_loadings(gen, n_paths, n):
    spots = gen.uniform(20.0, 200.0, size=(n_paths, n))
    vols = gen.uniform(0.1, 0.5, size=(n_paths, n))
    weights = gen.uniform(0.2, 1.5, size=n)
    return spots, vols, weights / weights.sum()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    custom_up=st.booleans(),
    custom_down=st.booleans(),
    kappa=st.sampled_from((0, 1)),
)
def test_non_flat_root_reprices_reachable_targets(seed, n, custom_up, custom_down, kappa):
    """Targets f(u*) on a branch, u* in [0, 50], are solved to 1e-12 relative.

    A branch of a center with negative entries need not be monotone, so the
    root found may differ from u*.  A target is reachable when it selects
    the drawn branch and lies between the center and that branch's limit,
    inside the band; then the branch's two ends bracket it.
    """
    gen = np.random.default_rng(seed)
    fam = _random_family(gen, n, False, custom_up, custom_down)
    spots, vols, weights = _random_loadings(gen, 32, n)
    u_star = gen.uniform(0.0, 50.0, size=32)
    target = fam.quad_form(spots * vols * weights[None, :], u_star, kappa)
    terms = covariance_terms(spots, vols, weights, np.sqrt(target) / (spots @ weights), fam)
    sol = solve_state(terms, fam)
    assert np.all((sol.u >= 0.0) & (sol.u <= U_MAX))
    _, raising, high, low = _band(terms)
    c_lim = terms.cov_up if kappa else terms.cov_down
    between = (terms.target - terms.cov_center) * (c_lim - terms.target) >= 0.0
    reachable = (raising == bool(kappa)) & between & ~high & ~low
    cov = fam.quad_form(terms.a, sol.u, sol.kappa)
    rel = np.abs(cov - terms.target) / terms.target
    assert np.all(rel[reachable] < 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    flat=st.booleans(),
    custom_up=st.booleans(),
    custom_down=st.booleans(),
)
def test_violation_flags_are_the_band_test(seed, n, flat, custom_up, custom_down):
    """solve_state flags exactly the band helper's targets, and the preflight counts them."""
    gen = np.random.default_rng(seed)
    fam = _random_family(gen, n, flat, custom_up, custom_down)
    spots, vols, weights = _random_loadings(gen, 24, n)
    terms = covariance_terms(spots, vols, weights, 0.2, fam)
    c0, c_up, c_dn = terms.cov_center, terms.cov_up, terms.cov_down
    # across and beyond the band, with rows exactly on both edges and on the center
    target = c_dn + gen.uniform(-0.3, 1.3, size=24) * (c_up - c_dn)
    target[:3], target[3:6], target[6:9] = c_up[:3], c_dn[3:6], c0[6:9]
    terms = dataclasses.replace(terms, target=target)
    sol = solve_state(terms, fam)
    _, raising, high, low = _band(terms)
    assert np.array_equal(sol.violated_high, high)
    assert np.array_equal(sol.violated_low, low)
    assert np.array_equal(sol.kappa, raising.astype(int))
    assert np.all(sol.u[high | low] == U_MAX)
    report = check_dispersion_bounds(terms)
    assert (report.n_high, report.n_low) == (np.count_nonzero(high), np.count_nonzero(low))
    # a target on the edge a branch moves toward counts as violating
    assert np.all(high[:3][c_up[:3] - c0[:3] > 1e-12 * c_up[:3]])
    assert np.all(low[3:6][c0[3:6] - c_dn[3:6] > 1e-12 * c_up[3:6]])


def test_covariance_monotone_along_branches():
    fam, _ = _two_equal_terms(index_vol=0.2)
    terms = covariance_terms(
        spots=np.array([[100.0, 100.0]]),
        vols=np.array([[0.2, 0.2]]),
        weights=np.array([0.5, 0.5]),
        index_vol=0.18,
        family=fam,
    )
    us = np.linspace(0.0, 10.0, 50)
    up_vals = [fam.quad_form(terms.a, np.array([u]), 1)[0] for u in us]
    dn_vals = [fam.quad_form(terms.a, np.array([u]), 0)[0] for u in us]
    assert np.all(np.diff(up_vals) > 0)
    assert np.all(np.diff(dn_vals) < 0)


def test_violations_clamp_to_max_state():
    fam, _ = _two_equal_terms(index_vol=0.2)
    high = covariance_terms(
        spots=np.array([[100.0, 100.0]]), vols=np.array([[0.2, 0.2]]),
        weights=np.array([0.5, 0.5]), index_vol=np.sqrt(450.0) / 100.0, family=fam,
    )
    sol = solve_state(high, fam)
    assert sol.violated_high[0] and not sol.violated_low[0]
    assert sol.u[0] == U_MAX and sol.kappa[0] == 1

    low = covariance_terms(
        spots=np.array([[100.0, 100.0]]), vols=np.array([[0.2, 0.2]]),
        weights=np.array([0.5, 0.5]), index_vol=np.sqrt(150.0) / 100.0, family=fam,
    )
    sol = solve_state(low, fam)
    assert sol.violated_low[0] and not sol.violated_high[0]
    assert sol.u[0] == U_MAX and sol.kappa[0] == 0


def test_check_dispersion_bounds_reporting():
    fam = CorrelationFamily(center=np.array([[1.0, 0.5], [0.5, 1.0]]))
    spots = np.tile([[100.0, 100.0]], (3, 1))
    vols = np.tile([[0.2, 0.2]], (3, 1))
    weights = np.array([0.5, 0.5])
    # targets 350 (inside), 500 (above 400), 100 (below 200)
    index_vol = np.sqrt(np.array([350.0, 500.0, 100.0])) / 100.0
    terms = covariance_terms(spots, vols, weights, index_vol, fam)
    report = check_dispersion_bounds(terms)
    assert report.n_checked == 3
    assert report.n_high == 1 and report.n_low == 1
    assert not report.ok
    assert abs(report.fraction_violated - 2.0 / 3.0) < 1e-12
    assert report.worst_high > 0.2  # 100 over on a 400 limit
    assert report.worst_low > 0.2
    with pytest.raises(Exception):
        report.require(max_fraction=0.1)


def test_terms_reject_non_finite():
    fam = CorrelationFamily(center=np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(CorrelationError):
        covariance_terms(
            spots=np.array([[np.nan, 100.0]]), vols=np.array([[0.2, 0.2]]),
            weights=np.array([0.5, 0.5]), index_vol=0.2, family=fam,
        )
