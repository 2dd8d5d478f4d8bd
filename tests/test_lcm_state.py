"""Tests for the per-path correlation state inversion."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcorr.copula import flat_correlation
from localcorr.corrfam import CorrelationFamily, state_u
from localcorr.errors import CorrelationError
from localcorr.lcm.state import (
    _LAM_MAX,
    U_MAX,
    _band,
    check_dispersion_bounds,
    covariance_terms,
    solve_state,
)

from helpers import quad_form, random_correlation


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
    sol = solve_state(terms, fam)
    assert sol.kappa[0] == 0
    assert abs(sol.u[0] - 1.0) < 1e-12
    assert sol.signed[0] == -sol.u[0]
    # (cov_center - target) / target = 50 / 250
    shortcut = np.sqrt((terms.cov_center[0] - terms.target[0]) / terms.target[0])
    assert abs(shortcut - np.sqrt(0.2)) < 1e-14
    mat = fam.evaluate(sol.u[0], 0)
    assert abs(mat[0, 1] - 0.25) < 1e-14


def test_the_cap_is_one_number():
    """U_MAX is the lambda cap's state, about 1e3."""
    assert U_MAX == state_u(_LAM_MAX)
    assert abs(U_MAX - 1e3) < 1e-7


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
    low = np.einsum("pi,ij,pj->p", a, fam.down, a)
    high = np.einsum("pi,ij,pj->p", a, fam.up, a)
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
        cov = quad_form(fam, terms.a, sol.u, sol.kappa)
        rel = np.abs(cov - terms.target) / terms.target
        assert np.max(rel) < 1e-10
        total += terms.target.size
    assert total >= 10_000


def test_exact_root_reprices_target_structured_center(rng):
    fam = CorrelationFamily(center=random_correlation(rng, 6))
    terms = _random_terms(rng, 2000, fam)
    sol = solve_state(terms, fam)
    cov = quad_form(fam, terms.a, sol.u, sol.kappa)
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
    sol = solve_state(terms, fam)
    down = sol.kappa == 0
    assert np.count_nonzero(down) > 100
    exact = sol.u[down]
    shortcut = np.sqrt((terms.cov_center[down] - terms.target[down]) / terms.target[down])
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
    cov = quad_form(fam, terms.a, sol.u, sol.kappa)
    rel = np.abs(cov - terms.target) / terms.target
    assert np.max(rel) < 1e-8


def test_grouped_families_solve_on_the_group_forms(rng):
    """Every row of a two-group family, solved by Newton on the mode-group forms,
    reprices to 1e-12."""
    fam = CorrelationFamily(
        center=random_correlation(rng, 4), mode=np.array([0.5, 2.0, 0.5, 2.0])
    )
    terms = _random_terms(rng, 800, fam)
    sol = solve_state(terms, fam)
    assert sol.n_violations == 0
    cov = quad_form(fam, terms.a, sol.u, sol.kappa)
    assert np.max(np.abs(cov - terms.target) / terms.target) < 1e-12


def test_flagged_rows_stay_frozen(rng, monkeypatch):
    """One Newton runs every row of a step: raising and lowering rows reprice to
    1e-12, and flagged rows start frozen, take the cap and hold no iteration open."""
    fam = CorrelationFamily(
        center=random_correlation(rng, 4), mode=np.array([0.5, 2.0, 0.5, 2.0])
    )
    terms = _random_terms(rng, 600, fam)
    target = terms.target.copy()
    target[:50] = 1.5 * terms.cov_up[:50]
    target[50:100] = 0.5 * terms.diag[50:100]
    terms = dataclasses.replace(terms, target=target)
    calls = []
    evaluate = CorrelationFamily.group_form_slope

    def counted(self, forms, v, kappa):
        calls.append(v.size)
        return evaluate(self, forms, v, kappa)

    monkeypatch.setattr(CorrelationFamily, "group_form_slope", counted)
    sol = solve_state(terms, fam)
    flagged = sol.violated_high | sol.violated_low
    assert np.count_nonzero(sol.violated_high[:50]) == 50
    assert np.count_nonzero(sol.violated_low[50:100]) == 50
    assert not flagged[100:].any()
    assert np.all(sol.lam[flagged] == _LAM_MAX)
    solved = ~flagged
    assert 0 < np.count_nonzero(sol.kappa[solved]) < np.count_nonzero(solved)
    cov = quad_form(fam, terms.a[solved], sol.u[solved], sol.kappa[solved])
    assert np.max(np.abs(cov - target[solved]) / target[solved]) < 1e-12
    assert 0 < len(calls) <= 16  # far below _MAX_ITERS = 64
    assert calls == [600] * len(calls)


def _random_family(gen, n, flat, groups=None):
    """A random center in flat mode, or with one mode per asset drawn from
    uniform(0.2, 5): a value each for ``groups`` None, else from ``groups``
    drawn values, so that assets share mode groups."""
    center = random_correlation(gen, n)
    if flat:
        return CorrelationFamily(center=center)
    if groups is None:
        return CorrelationFamily(center=center, mode=gen.uniform(0.2, 5.0, size=n))
    values = gen.uniform(0.2, 5.0, size=groups)
    return CorrelationFamily(center=center, mode=values[gen.integers(0, groups, size=n)])


#: mode groups of ``_random_family``: a mode per asset, one shared mode, or two;
#: the tests drawing it take three times their examples, so each keeps its count
_GROUPS = st.sampled_from((None, 1, 2))


def _flat_family(n, frac):
    """flat:<rho> with rho = 0 for ``frac`` None, else a fraction ``frac`` of the
    way from -1/(n - 1) to 1, in flat mode."""
    lo = -1.0 / (n - 1)
    rho = 0.0 if frac is None else lo + frac * (1.0 - lo)
    fam = CorrelationFamily(center=flat_correlation(n, rho))
    assert fam._equi_rho is not None
    return fam


#: no equicorrelated center, rho = 0, or a fraction of the way across (-1/(n - 1), 1).
#: The fraction starts at 1 %: nearer the singular end, where 1 + (n - 1) rho -> 0,
#: the repricing oracle ``quad_form`` at u = state_u(lambda) resolves a'R a only to
#: about eps (cov_up - diag), which can exceed 1e-12 of a target far below diag.
#: The solve itself is exact in lambda there (see
#: ``test_flat_solve_is_exact_in_lambda``).
_EQUI = st.one_of(st.just(False), st.none(), st.floats(0.01, 1.0, exclude_max=True))


def _random_loadings(gen, n_paths, n):
    spots = gen.uniform(20.0, 200.0, size=(n_paths, n))
    vols = gen.uniform(0.1, 0.5, size=(n_paths, n))
    weights = gen.uniform(0.2, 1.5, size=n)
    return spots, vols, weights / weights.sum()


@settings(max_examples=900, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    kappa=st.sampled_from((0, 1)),
    groups=_GROUPS,
)
def test_non_flat_root_reprices_reachable_targets(seed, n, kappa, groups):
    """Targets f(u*) on a branch, u* in [0, 50], are solved to 1e-12 relative.

    A branch of a center with negative entries need not be monotone, so the
    root found may differ from u*.  A target is reachable when it selects
    the drawn branch and lies between the center and that branch's limit,
    inside the band; then the branch's two ends bracket it.  Shared modes
    (``groups`` 1 or 2) send the solve through the mode-group forms.
    """
    gen = np.random.default_rng(seed)
    fam = _random_family(gen, n, False, groups)
    spots, vols, weights = _random_loadings(gen, 32, n)
    u_star = gen.uniform(0.0, 50.0, size=32)
    target = quad_form(fam, spots * vols * weights[None, :], u_star, kappa)
    terms = covariance_terms(spots, vols, weights, np.sqrt(target) / (spots @ weights), fam)
    sol = solve_state(terms, fam)
    assert np.all((sol.u >= 0.0) & (sol.u <= U_MAX))
    _, raising, high, low = _band(terms)
    c_lim = terms.cov_up if kappa else terms.diag
    between = (terms.target - terms.cov_center) * (c_lim - terms.target) >= 0.0
    reachable = (raising == bool(kappa)) & between & ~high & ~low
    cov = quad_form(fam, terms.a, sol.u, sol.kappa)
    rel = np.abs(cov - terms.target) / terms.target
    assert np.all(rel[reachable] < 1e-12)


@settings(max_examples=600, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    flat=st.booleans(),
    equi=_EQUI,
    groups=_GROUPS,
)
def test_violation_flags_are_the_band_test(seed, n, flat, equi, groups):
    """solve_state flags exactly the band helper's targets, and the preflight counts them.

    ``equi`` other than False replaces the family by an equicorrelated one
    (at n > 1).  A row is clamped exactly when its lambda is the cap, which
    is exactly when its u is ``U_MAX``, and no u exceeds it.
    """
    gen = np.random.default_rng(seed)
    fam = _random_family(gen, n, flat, groups)
    if equi is not False and n > 1:
        fam = _flat_family(n, equi)
    spots, vols, weights = _random_loadings(gen, 24, n)
    terms = covariance_terms(spots, vols, weights, 0.2, fam)
    c0, c_up, c_dn = terms.cov_center, terms.cov_up, terms.diag
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
    assert np.array_equal(sol.clamped, sol.lam == _LAM_MAX)
    assert np.array_equal(sol.clamped, sol.u == U_MAX)
    assert np.all(sol.u <= U_MAX)
    report = check_dispersion_bounds(terms)
    assert (report.n_high, report.n_low) == (np.count_nonzero(high), np.count_nonzero(low))
    # a target on the edge a branch moves toward counts as violating
    assert np.all(high[:3][c_up[:3] - c0[:3] > 1e-12 * c_up[:3]])
    assert np.all(low[3:6][c0[3:6] - c_dn[3:6] > 1e-12 * c_up[3:6]])


@settings(max_examples=900, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    flat=st.booleans(),
    identity_center=st.booleans(),
    equi=_EQUI,
    groups=_GROUPS,
)
def test_every_row_is_repriced_or_flagged(seed, n, flat, identity_center, equi, groups):
    """Whichever side of the center a branch limit sits on, or on it, no row misses silently.

    A center with negative entries can put the lowering limit diag on the
    far side of the center, and an identity center makes the lowering
    branch degenerate; a target such a branch cannot reach must be flagged,
    and every other target is repriced to 1e-12 relative.  ``equi`` other
    than False replaces the family by an equicorrelated one.
    """
    gen = np.random.default_rng(seed)
    fam = _random_family(gen, n, flat, groups)
    if identity_center:
        fam = CorrelationFamily(center=np.eye(n), mode=fam.mode)
    if equi is not False:
        fam = _flat_family(n, equi)
    spots, vols, weights = _random_loadings(gen, 32, n)
    terms = covariance_terms(spots, vols, weights, 0.2, fam)
    target = terms.cov_center * np.exp(gen.uniform(-1.0, 1.0, size=32))
    target[:2] = terms.cov_center[:2]
    terms = dataclasses.replace(terms, target=target)
    sol = solve_state(terms, fam)
    flagged = sol.violated_high | sol.violated_low
    cov = quad_form(fam, terms.a, sol.u, sol.kappa)
    rel = np.abs(cov - target) / target
    assert np.all(flagged | (rel < 1e-12)), rel[~flagged].max()
    assert np.array_equal(sol.u[flagged], np.full(np.count_nonzero(flagged), U_MAX))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    kind=st.sampled_from(("flat", "identity", "random")),
    gap=st.one_of(st.just(1e-9), st.just(2.4e-7), st.floats(1e-9, 2.0)),
)
def test_flat_solve_is_exact_in_lambda(seed, n, kind, gap):
    """In flat mode every unflagged row has (1 - lambda) c0 + lambda c_lim = target
    to 1e-14 relative, on either branch.

    ``flat`` takes flat:<rho> with rho ``gap`` above -1/(n - 1), up to 1, so the
    singular end 1 + (n - 1) rho -> 0 is covered (rho = -1 + 2.4e-7 at n = 2
    among them); ``random`` takes a random center, which is not
    equicorrelated beyond two assets.  Loadings and targets are those of
    ``test_every_row_is_repriced_or_flagged``.
    """
    gen = np.random.default_rng(seed)
    if kind == "flat":
        fam = CorrelationFamily(center=flat_correlation(n, min(-1.0 / (n - 1) + gap, 1.0)))
    elif kind == "identity":
        fam = CorrelationFamily(center=np.eye(n))
    else:
        fam = _random_family(gen, n, True)
        assert n == 2 or fam._equi_rho is None
    assert fam.flat_mode
    spots, vols, weights = _random_loadings(gen, 32, n)
    terms = covariance_terms(spots, vols, weights, 0.2, fam)
    target = terms.cov_center * np.exp(gen.uniform(-1.0, 1.0, size=32))
    target[:2] = terms.cov_center[:2]
    terms = dataclasses.replace(terms, target=target)
    sol = solve_state(terms, fam)
    flagged = sol.violated_high | sol.violated_low
    c_lim = np.where(sol.kappa > 0, terms.cov_up, terms.diag)
    solved = (1.0 - sol.lam) * terms.cov_center + sol.lam * c_lim
    err = np.abs(solved - target)
    assert np.all(flagged | (err <= 1e-14 * target)), (err / target)[~flagged].max()


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.3])
@pytest.mark.parametrize("n", [2, 3])
def test_one_live_loading_rows_are_flagged_or_central(n, rho):
    """Loadings with one non-zero entry give cov_up == diag == cov_center, where
    the closed form in lambda is 0/0: targets at, above and below the center
    get the band test's flags and finite states and levels, without a warning."""
    fam = CorrelationFamily(center=flat_correlation(n, rho))
    spots = np.tile(np.linspace(80.0, 120.0, n), (5, 1))
    vols = np.full((5, n), 0.25)
    for live in range(n):
        weights = np.eye(n)[live]
        terms = covariance_terms(spots, vols, weights, 0.2, fam)
        c0 = terms.cov_center
        target = c0 * np.array([1.0, 1.5, 0.5, 1.0 + 1e-15, 1.0 - 1e-15])
        terms = dataclasses.replace(terms, target=target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_state(terms, fam)
            u, level = sol.u, sol.level
        _, raising, high, low = _band(terms)
        assert np.array_equal(sol.violated_high, high)
        assert np.array_equal(sol.violated_low, low)
        assert np.array_equal(sol.kappa, raising.astype(int))
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(level))
        assert high[1] and low[2]


def test_a_negative_center_puts_the_lowering_limit_on_the_far_side():
    """Under flat:-0.2 at n = 3 with balanced loadings cov_center < diag, so the
    lowering limit lies above the center: every target below the center is
    flagged low at the cap, and every target between the center and cov_up,
    diag included, reprices to 1e-12 on the raising branch."""
    fam = CorrelationFamily(center=flat_correlation(3, -0.2))
    spots = np.tile([100.0, 101.0, 99.0], (8, 1))
    vols = np.full((8, 3), 0.25)
    terms = covariance_terms(spots, vols, np.full(3, 1.0 / 3.0), 0.2, fam)
    c0, c_up, diag = terms.cov_center, terms.cov_up, terms.diag
    assert np.all(c0 < diag)
    frac = np.linspace(0.1, 0.9, 4)
    target = np.concatenate([c0[:4] * (1.0 - frac), c0[4:] + frac * (c_up[4:] - c0[4:])])
    assert np.any(target[4:] < diag[4:]) and np.any(target[4:] > diag[4:])
    terms = dataclasses.replace(terms, target=target)
    sol = solve_state(terms, fam)
    assert np.all(sol.violated_low[:4]) and np.all(sol.lam[:4] == _LAM_MAX)
    assert not np.any((sol.violated_high | sol.violated_low)[4:])
    assert np.array_equal(sol.kappa, np.repeat([0, 1], 4))
    cov = quad_form(fam, terms.a[4:], sol.u[4:], sol.kappa[4:])
    assert np.all(np.abs(cov - target[4:]) <= 1e-12 * target[4:])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    frac=st.one_of(st.none(), st.floats(0.01, 0.95)),
)
def test_u_from_the_level_is_the_closed_form_u(seed, n, frac):
    """``sol.u``, the state of the solved lambda, is the flat closed form in u,
    u^2 = (target - c0) / (c_up - target) raising and
    (c0 - target) / (target - diag) lowering, within 1e-12 relative, or
    ``U_MAX`` on both sides.  The level is the member's mean correlation.  On
    an identity center every lowering row sits at the center or is flagged,
    so its u is exactly 0 or ``U_MAX``.

    Both formulas lose about eps c_up / |target - c0| to rounding, so the
    1e-12 comparison takes the rows whose branch spans at least 2 % of
    c_up; the loadings are balanced so that most raising rows qualify.
    """
    gen = np.random.default_rng(seed)
    fam = _flat_family(n, frac)
    spots = gen.uniform(80.0, 120.0, size=(64, n))
    vols = gen.uniform(0.15, 0.3, size=(64, n))
    terms = covariance_terms(spots, vols, np.full(n, 1.0 / n), 0.2, fam)
    c0, c_up, diag = terms.cov_center, terms.cov_up, terms.diag
    # inside either branch, on the center and beyond both limits
    step = gen.uniform(0.05, 0.95, size=64)
    target = np.where(gen.random(64) < 0.5, c0 + step * (c_up - c0), c0 - step * (c0 - diag))
    target[:4], target[4:8], target[8:12] = c0[:4], 1.1 * c_up[4:8], 0.9 * diag[8:12]
    terms = dataclasses.replace(terms, target=target)
    sol = solve_state(terms, fam)
    raising = sol.kappa > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        u2 = np.where(raising, (target - c0) / (c_up - target), (c0 - target) / (target - diag))
    flagged = sol.violated_high | sol.violated_low
    closed = np.where(flagged, U_MAX, np.minimum(np.sqrt(np.where(u2 > 0.0, u2, 0.0)), U_MAX))
    capped = (sol.u == U_MAX) & (closed == U_MAX)
    wide = np.where(raising, c_up - c0, c0 - diag) >= 0.02 * c_up
    checked = flagged | wide
    assert np.count_nonzero(checked[12:]) >= 10
    assert np.all((capped | (np.abs(sol.u - closed) <= 1e-12 * closed))[checked])
    member = (quad_form(fam, np.ones((64, n)), sol.u, sol.kappa) - n) / (n * (n - 1))
    assert np.allclose(member, sol.level, rtol=0.0, atol=1e-12)
    if frac is None:
        assert np.all((sol.u[~raising] == 0.0) | (sol.u[~raising] == U_MAX))


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
    up_vals = [quad_form(fam, terms.a, np.array([u]), 1)[0] for u in us]
    dn_vals = [quad_form(fam, terms.a, np.array([u]), 0)[0] for u in us]
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
    assert report.worst_high > 0.2  # 100 over on a 400 limit
    assert report.worst_low > 0.2


def test_terms_reject_non_finite():
    fam = CorrelationFamily(center=np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(CorrelationError):
        covariance_terms(
            spots=np.array([[np.nan, 100.0]]), vols=np.array([[0.2, 0.2]]),
            weights=np.array([0.5, 0.5]), index_vol=0.2, family=fam,
        )
