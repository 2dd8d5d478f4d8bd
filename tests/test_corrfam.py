"""Tests for the correlation family, PSD helpers, the state sweep, and the exact sampler."""

import csv
import dataclasses
import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localcorr.corrfam import (
    REPAIR_TOL,
    CorrelationFamily,
    cholesky_lower,
    repair_psd,
    state_u,
    validate_correlation,
)
from localcorr.cli import main
from localcorr.copula import flat_correlation
from localcorr.errors import CorrelationError
from localcorr.lcm.state import U_MAX
from localcorr.marketdata.snapshot import save_snapshot
from localcorr.synth import AssetRecipe, SyntheticRecipe, build_snapshot

from helpers import quad_form, quad_form_slope, random_correlation


# ---------------------------------------------------------------------------
# validation and repair


def _min_eigenvalue(mat):
    return float(np.linalg.eigvalsh(validate_correlation(mat))[0])


def test_validate_correlation_happy_path():
    mat = np.array([[1.0, 0.3], [0.3, 1.0]])
    out = validate_correlation(mat)
    assert np.allclose(out, mat)


def test_validate_correlation_rejects_bad_matrices():
    with pytest.raises(CorrelationError):
        validate_correlation(np.array([[1.0, 0.3], [0.2, 1.0]]))  # asymmetric
    with pytest.raises(CorrelationError):
        validate_correlation(np.array([[0.9, 0.3], [0.3, 1.0]]))  # diag != 1
    with pytest.raises(CorrelationError):
        validate_correlation(np.array([[1.0, 1.2], [1.2, 1.0]]))  # |rho| > 1
    with pytest.raises(CorrelationError):
        validate_correlation(np.array([1.0, 0.5]))  # not square


def test_repair_psd_identity_on_clean_input():
    mat = np.array([[1.0, 0.2], [0.2, 1.0]])
    assert repair_psd(mat) is mat


def test_repair_psd_fixes_small_negative_eigenvalue():
    # three assets just past the equicorrelation floor -1/2: eigenvalue 1 + 2 rho = -2e-9
    mat = np.full((3, 3), -0.5 - 1e-9)
    np.fill_diagonal(mat, 1.0)
    assert REPAIR_TOL < _min_eigenvalue(mat) < 0.0
    fixed = repair_psd(mat)
    assert np.array_equal(fixed, fixed.T)
    assert np.array_equal(np.diag(fixed), np.ones(3))
    assert _min_eigenvalue(fixed) >= -1e-12
    assert np.max(np.abs(fixed - mat)) < 1e-7


def test_repair_psd_rejects_strongly_indefinite():
    mat = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    assert _min_eigenvalue(mat) < -1e-3
    with pytest.raises(CorrelationError):
        repair_psd(mat)


# ---------------------------------------------------------------------------
# Cholesky


def test_cholesky_multiplies_back(rng):
    for n in (2, 5, 12):
        mat = random_correlation(rng, n)
        low = cholesky_lower(mat)
        assert np.allclose(low @ low.T, mat, atol=1e-12)
        assert np.allclose(low, np.tril(low))


def test_cholesky_handles_singular_comonotone():
    ones = np.ones((4, 4))
    low = cholesky_lower(ones)
    assert np.allclose(low @ low.T, ones, atol=1e-14)
    # one factor only: first column of ones, the rest zero
    assert np.allclose(low[:, 0], 1.0)
    assert np.allclose(low[:, 1:], 0.0)


def test_cholesky_rejects_indefinite():
    with pytest.raises(CorrelationError):
        cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))


# ---------------------------------------------------------------------------
# family evaluation


def test_family_center_and_limits():
    center = np.array([[1.0, 0.5], [0.5, 1.0]])
    fam = CorrelationFamily(center=center)
    assert np.allclose(fam.evaluate(0.0, 1), center)
    assert np.allclose(fam.evaluate(0.0, 0), center)
    assert np.allclose(fam.up, np.ones((2, 2)))
    assert np.allclose(fam.down, np.eye(2))


def test_branch_limits_are_fixed():
    """The family has two fields; the limits are all ones and the identity, not options."""
    center = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert [f.name for f in dataclasses.fields(CorrelationFamily)] == ["center", "mode"]
    for limit in ("up", "down"):
        with pytest.raises(TypeError):
            CorrelationFamily(center=center, **{limit: np.eye(2)})


def test_family_midpoint_hand_values():
    """At u = 1 the flat-mode blend averages center and branch limit."""
    fam = CorrelationFamily(center=np.array([[1.0, 0.5], [0.5, 1.0]]))
    up = fam.evaluate(1.0, 1)
    down = fam.evaluate(1.0, 0)
    # (0.5 + 1) / 2 = 0.75 raising, (0.5 + 0) / 2 = 0.25 lowering
    assert abs(up[0, 1] - 0.75) < 1e-15
    assert abs(down[0, 1] - 0.25) < 1e-15


def test_family_large_state_approaches_limit():
    fam = CorrelationFamily(center=np.array([[1.0, 0.3], [0.3, 1.0]]))
    far = fam.evaluate(1e3, 1)
    assert abs(far[0, 1] - 1.0) < 2e-6


def test_family_random_sweep_stays_admissible(rng):
    """1000 random draws: PSD, exact unit diagonal, off-diagonals in [-1, 1]."""
    worst_eig = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        fam = CorrelationFamily(
            center=random_correlation(rng, n),
            mode=rng.uniform(0.3, 3.0, size=n) if rng.random() < 0.5 else None,
        )
        u = float(rng.uniform(0.0, 50.0))
        kappa = int(rng.integers(0, 2))
        mat = fam.evaluate(u, kappa)
        assert np.all(np.diag(mat) == 1.0)
        off = mat[~np.eye(n, dtype=bool)]
        assert np.all(off <= 1.0 + 1e-12) and np.all(off >= -1.0 - 1e-12)
        worst_eig = min(worst_eig, _min_eigenvalue(mat))
    assert worst_eig >= -1e-10


def test_family_validates_inputs():
    center = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(CorrelationError):
        CorrelationFamily(center=center, mode=np.array([1.0, -1.0]))
    with pytest.raises(CorrelationError):
        CorrelationFamily(center=center, mode=np.array([1.0, 1.0, 1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(CorrelationError, match="mode vector must be positive"):
            CorrelationFamily(center=center, mode=np.array([1.0, bad]))
    fam = CorrelationFamily(center=center)
    with pytest.raises(CorrelationError):
        fam.evaluate(-1.0, 1)
    with pytest.raises(CorrelationError):
        fam.evaluate(1.0, 2)


def test_non_flat_mode_detected():
    center = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert CorrelationFamily(center=center).flat_mode
    assert not CorrelationFamily(center=center, mode=np.array([1.0, 2.0])).flat_mode


# ---------------------------------------------------------------------------
# the signed state sweep written by dump-table


@pytest.fixture(scope="module")
def two_asset_snapshot(tmp_path_factory):
    recipe = SyntheticRecipe(
        assets=(AssetRecipe("AAA"), AssetRecipe("BBB", base_vol=0.25)),
        correlation=0.3,
        maturities=(0.5, 1.0, 1.5),
    )
    path = tmp_path_factory.mktemp("sweep") / "snapshot.json"
    save_snapshot(build_snapshot(recipe), path)
    return path


def _sweep(snapshot, out_dir, *args):
    res = CliRunner().invoke(
        main, ["--input", str(snapshot), "--output-dir", str(out_dir), "dump-table", *args],
        catch_exceptions=False,
    )
    assert res.exit_code == 0, res.output
    with open(out_dir / "table.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    states = np.array([float(r[0]) for r in rows])
    kappas = np.array([int(r[1]) for r in rows])
    lows = np.array([float(r[2]) for r in rows])
    return states, kappas, lows


def test_build_table_shape_and_center(two_asset_snapshot, tmp_path):
    fam = CorrelationFamily(center=np.array([[1.0, 0.4], [0.4, 1.0]]))
    states, kappas, lows = _sweep(two_asset_snapshot, tmp_path,
                                  "--states", "101", "--center", "flat:0.4")
    assert len(states) == 101
    assert states[50] == 0.0 and kappas[50] == 1
    assert abs(lows[50] - np.linalg.eigvalsh(fam.center)[0]) < 1e-12
    assert np.all(np.diff(states) > 0)
    assert abs(states[0] + states[-1]) < 1e-12  # symmetric grid
    # raising branch at positive states, lowering branch at negative ones
    assert np.all(kappas[states > 0] == 1) and np.all(kappas[states < 0] == 0)
    for state, kappa, low in zip(states, kappas, lows):
        assert abs(low - np.linalg.eigvalsh(fam.evaluate(abs(state), kappa))[0]) < 1e-12


def test_default_shift_covers_reach(two_asset_snapshot, tmp_path):
    states, _, _ = _sweep(two_asset_snapshot, tmp_path, "--states", "101", "--center", "identity")
    # the top state pushes the blend weight u^2/(1+u^2) to the reach level
    top = states[-1]
    assert top ** 2 / (1.0 + top ** 2) > 0.998


@pytest.mark.parametrize("args", [["--shift", "nan"], ["--shift", "inf"],
                                  ["--shift", "1e308", "--states", "5"]],
                         ids=["nan", "inf", "top-overflows"])
def test_shift_without_finite_states_fails_naming_it(two_asset_snapshot, tmp_path, args):
    """A shift whose top state is not finite fails naming --shift, not a state u."""
    res = CliRunner().invoke(
        main, ["--input", str(two_asset_snapshot), "--output-dir", str(tmp_path), "dump-table",
               *args],
        catch_exceptions=False,
    )
    assert res.exit_code == 1
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "CorrelationError"
    assert "--shift" in err["message"] and "state u" not in err["message"]
    assert not (tmp_path / "table.csv").exists()


# ---------------------------------------------------------------------------
# exact sampling


def _lam(u):
    """The engine's state lambda = u^2 / (1 + u^2) of a state u."""
    return np.square(u) / (1.0 + np.square(u))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    kappa=st.sampled_from((0, 1)),
    u=st.floats(0.0, U_MAX),
)
def test_sampler_reproduces_family_exactly(seed, n, kappa, u):
    """The draw's linear map M = [S L_C, u S Xi L_D] has M M' = R(u, kappa)."""
    gen = np.random.default_rng(seed)
    fam = CorrelationFamily(
        center=random_correlation(gen, n),
        mode=gen.uniform(0.2, 5.0, size=n),
    )
    # one asset draws one normal; every other family here draws 2n
    m = fam.n_normals
    assert m == (1 if n == 1 else 2 * n)
    # feeding the unit vectors of R^m returns the columns of the linear map
    lams = np.full(m, _lam(u))
    kappas = np.full(m, kappa)
    lin = fam.draw(np.eye(m), lams, kappas, fam.mean_correlation(lams, kappas)).T
    assert lin.shape == (n, m)
    mat = fam.evaluate(u, kappa)
    assert np.max(np.abs(lin @ lin.T - mat)) < 1e-12
    # each asset's correlated normal is N(0, 1) whatever the state
    assert np.max(np.abs(np.diag(lin @ lin.T) - 1.0)) < 1e-12
    level = fam.mean_correlation(lams[:1], kappas[:1])[0]
    expected = mat[~np.eye(n, dtype=bool)].mean() if n > 1 else 0.0
    assert abs(level - expected) < 1e-12
    # quadratic forms of loading rows, one branch for all rows and mixed per row
    loads = gen.standard_normal((4, n))
    size = np.square(np.abs(loads).sum(axis=1))
    one = quad_form(fam, loads, np.full(4, u), kappa)
    assert np.all(np.abs(one - np.einsum("pi,ij,pj->p", loads, mat, loads)) < 1e-12 * size)
    mixed = np.array([0, 1, 1, 0])
    both = quad_form(fam, loads, np.full(4, u), mixed)
    for p, k in enumerate(mixed):
        assert abs(both[p] - loads[p] @ fam.evaluate(u, k) @ loads[p]) < 1e-12 * size[p]
    assert np.array_equal(both[mixed == kappa], one[mixed == kappa])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    kappa=st.sampled_from((0, 1)),
    lam=st.floats(0.01, 0.99),
)
def test_quad_form_slope_is_the_lambda_derivative(seed, n, kappa, lam):
    """quad_form_slope returns quad_form's bits and its derivative in lambda = u^2/(1+u^2)."""
    gen = np.random.default_rng(seed)
    fam = CorrelationFamily(
        center=random_correlation(gen, n),
        mode=gen.uniform(0.2, 5.0, size=n),
    )
    loads = gen.standard_normal((4, n))

    def at(x):
        return np.full(4, np.sqrt(x / (1.0 - x)))

    value, slope = quad_form_slope(fam, loads, at(lam), kappa)
    assert np.array_equal(value, quad_form(fam, loads, at(lam), kappa))
    h = 1e-6
    central = (quad_form(fam, loads, at(lam + h), kappa) - quad_form(fam, loads, at(lam - h), kappa)) / (2 * h)
    size = np.square(np.abs(loads).sum(axis=1))
    assert np.all(np.abs(slope - central) < 1e-6 * size)


def _grouped_modes(gen, n, groups):
    """A mode per asset drawn from ``groups`` values in [0.2, 5]; ``groups`` None
    draws n of them, so at most n groups."""
    values = gen.uniform(0.2, 5.0, size=n if groups is None else groups)
    return values if groups is None else values[gen.integers(0, groups, size=n)]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    groups=st.sampled_from((None, 1, 2)),
    u=st.one_of(st.just(0.0), st.just(U_MAX), st.floats(0.0, U_MAX)),
    mixed=st.lists(st.sampled_from((0, 1)), min_size=4, max_size=4),
)
def test_group_form_slope_is_quad_form_slope(seed, n, groups, u, mixed):
    """The mode-group forms give quad_form_slope's value and slope in lambda to 1e-12
    relative on both branches, at v = lambda / (1 - lambda) as the state solve
    reads it, with one group, two groups or a mode per asset.  A per-row branch
    vector gives each row the bits of its branch's scalar call."""
    gen = np.random.default_rng(seed)
    fam = CorrelationFamily(center=random_correlation(gen, n), mode=_grouped_modes(gen, n, groups))
    loads = gen.standard_normal((4, n))
    lam = np.full(4, _lam(u))
    v = lam / (1.0 - lam)
    forms = fam.group_forms(loads)
    # |a'R a| <= (sum |a_i|)^2, and the slope carries the factor (1 + v)^2 of dv/dlambda
    scale = np.square(np.abs(loads).sum(axis=1))
    by_branch = []
    for kappa in (0, 1):
        value, slope = quad_form_slope(fam, loads, state_u(lam), kappa)
        group_value, group_slope = fam.group_form_slope(forms, v, kappa)
        assert np.all(np.abs(group_value - value) <= 1e-12 * scale)
        assert np.all(np.abs(group_slope - slope) <= 1e-12 * scale * np.square(1.0 + v))
        by_branch.append((group_value, group_slope))
    kappa = np.array(mixed)
    for got, down, up in zip(fam.group_form_slope(forms, v, kappa), *by_branch):
        assert np.array_equal(got, np.where(kappa > 0, up, down))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10),
    per_row=st.booleans(),
    us=st.lists(st.floats(0.0, U_MAX), min_size=1, max_size=6),
)
def test_flat_mean_correlation_matches_quad_form(seed, n, per_row, us):
    """Flat mode's mean correlation, linear in lambda = u^2 / (1 + u^2), is 1'R1 from
    quad_form with unit loadings."""
    gen = np.random.default_rng(seed)
    fam = CorrelationFamily(center=random_correlation(gen, n))
    assert fam.flat_mode
    u = np.array([0.0, U_MAX, *us])
    kappas = [gen.integers(0, 2, size=u.size)] if per_row else [0, 1]
    for kappa in kappas:
        level = fam.mean_correlation(_lam(u), kappa)
        if n == 1:
            assert np.array_equal(level, np.zeros(u.size))
            continue
        oracle = (quad_form(fam, np.ones((u.size, n)), u, kappa) - n) / (n * (n - 1))
        # a mean correlation lies in [-1, 1], so 1e-13 absolute is 1e-13 of its range
        assert np.all(np.abs(level - oracle) <= 1e-13)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 10),
    per_row=st.booleans(),
    us=st.lists(st.floats(0.0, U_MAX), min_size=1, max_size=6),
    groups=st.sampled_from((None, 1, 2)),
)
def test_grouped_mean_correlation_matches_quad_form(seed, n, per_row, us, groups):
    """Other modes' mean correlation, from the constant group sums, is 1'R1 from
    quad_form with unit loadings, with one group, two groups or a mode per asset."""
    gen = np.random.default_rng(seed)
    fam = CorrelationFamily(center=random_correlation(gen, n), mode=_grouped_modes(gen, n, groups))
    u = np.array([0.0, U_MAX, *us])
    kappas = [gen.integers(0, 2, size=u.size)] if per_row else [0, 1]
    for kappa in kappas:
        level = fam.mean_correlation(_lam(u), kappa)
        oracle = (quad_form(fam, np.ones((u.size, n)), u, kappa) - n) / (n * (n - 1))
        # a mean correlation lies in [-1, 1], so 1e-12 absolute is 1e-12 of its range
        assert np.all(np.abs(level - oracle) <= 1e-12)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10),
    flat=st.booleans(),
    us=st.lists(st.floats(0.0, U_MAX), min_size=1, max_size=8),
)
def test_default_direction_draw_is_the_matrix_map_bit_for_bit(seed, n, flat, us):
    """Without products, draw still returns S(u) (L_C z1 + u Xi L_D z2)'s exact bits
    at u = state_u(lambda), with L_D the Cholesky factor of the branch limit."""
    gen = np.random.default_rng(seed)
    fam = CorrelationFamily(
        center=random_correlation(gen, n),
        mode=None if flat else gen.uniform(0.2, 5.0, size=n),
    )
    lam = _lam(np.array([0.0, U_MAX, *us]))
    kappa = gen.integers(0, 2, size=lam.size)
    level = fam.mean_correlation(lam, kappa)
    u = state_u(lam)
    if fam.n_normals == n:
        # one asset, or a flat two-asset family, whose center is equicorrelated
        assert n == 1 or (flat and n == 2)
        if n == 1:
            z = gen.standard_normal((u.size, 1))
            assert fam.draw(z, lam, kappa, level) is z
        return
    assert fam.n_normals == 2 * n
    z = gen.standard_normal((u.size, 2 * n))
    z1, z2 = z[:, :n], z[:, n:]
    up, down = cholesky_lower(fam.up), cholesky_lower(fam.down)
    along = np.where(kappa[:, None] > 0, z2 @ up.T, z2 @ down.T)
    xu = fam.mode[None, :] * u[:, None]
    expected = (z1 @ fam._chol_center.T + xu * along) / np.sqrt(1.0 + np.square(xu))
    assert np.array_equal(fam.draw(z, lam, kappa, level), expected)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 8),
    rho=st.one_of(st.just("identity"), st.just(0.0),
                  st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
    kappa=st.sampled_from((0, 1)),
    u=st.one_of(st.just(0.0), st.just(U_MAX), st.floats(0.0, U_MAX)),
)
def test_equicorrelation_draw_reproduces_family_exactly(n, rho, kappa, u):
    """Flat centers and one asset draw n normals through alpha z + beta (1'z) 1, and the
    map M has M M' = R(u, kappa)."""
    if rho == "identity":
        center = np.eye(n)
    else:
        assume(n == 1 or rho > -1.0 / (n - 1))
        center = flat_correlation(n, rho)
    fam = CorrelationFamily(center=center)
    assert fam.n_normals == n
    lam, kappas = np.full(n, _lam(u)), np.full(n, kappa)
    lin = fam.draw(np.eye(n), lam, kappas, fam.mean_correlation(lam, kappas)).T
    assert lin.shape == (n, n)
    assert np.max(np.abs(lin @ lin.T - fam.evaluate(u, kappa))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_general_families_draw_two_normals_per_asset(n):
    """A two-block center or a non-unit mode keeps the 2n-normal map."""
    flat = flat_correlation(n, 0.4)
    block = flat.copy()
    block[: n // 2, n // 2 :] = block[n // 2 :, : n // 2] = 0.1
    assert CorrelationFamily(center=flat).n_normals == n
    assert CorrelationFamily(center=flat, mode=np.linspace(1.0, 2.0, n)).n_normals == 2 * n
    if n > 2:  # every 2 x 2 center is equicorrelated
        assert CorrelationFamily(center=block).n_normals == 2 * n
