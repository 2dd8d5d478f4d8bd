"""Tests for the correlation family, PSD helpers, the state sweep, and the exact sampler."""

import csv

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from localcorr.corrfam import (
    CorrelationFamily,
    cholesky_lower,
    repair_psd,
    validate_correlation,
    validate_psd,
)
from localcorr.cli import main
from localcorr.errors import CorrelationError
from localcorr.lcm.state import U_MAX
from localcorr.marketdata.snapshot import save_snapshot
from localcorr.synth import AssetRecipe, SyntheticRecipe, build_snapshot

from helpers import random_correlation


# ---------------------------------------------------------------------------
# validation and repair


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


def test_validate_psd_returns_smallest_eigenvalue():
    mat = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert abs(validate_psd(mat) - 0.5) < 1e-12


def test_repair_psd_identity_on_clean_input():
    mat = np.array([[1.0, 0.2], [0.2, 1.0]])
    assert repair_psd(mat) is mat


def test_repair_psd_fixes_small_negative_eigenvalue():
    # rank-one-ish matrix pushed just barely indefinite
    base = np.array([[1.0, 0.999999, 0.999999],
                     [0.999999, 1.0, 0.999999],
                     [0.999999, 0.999999, 1.0]])
    bumped = base - 2e-9 * np.eye(3)
    bumped = bumped + np.diag(1.0 - np.diag(bumped))
    jitter = base.copy()
    jitter[0, 1] = jitter[1, 0] = 1.0 - 1e-12
    fixed = repair_psd(jitter)
    assert validate_psd(fixed) >= -1e-12
    np.fill_diagonal(fixed, 1.0)
    assert np.allclose(np.diag(fixed), 1.0)


def test_repair_psd_rejects_strongly_indefinite():
    mat = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    assert validate_psd(mat) < -1e-3
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
    assert np.allclose(fam.limit(1), np.ones((2, 2)))
    assert np.allclose(fam.limit(0), np.eye(2))


def test_family_midpoint_hand_values():
    """At u = 1 the flat-mode blend averages center and direction."""
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
            up=random_correlation(rng, n) if rng.random() < 0.3 else None,
            down=random_correlation(rng, n) if rng.random() < 0.3 else None,
        )
        u = float(rng.uniform(0.0, 50.0))
        kappa = int(rng.integers(0, 2))
        mat = fam.evaluate(u, kappa)
        assert np.all(np.diag(mat) == 1.0)
        off = mat[~np.eye(n, dtype=bool)]
        assert np.all(off <= 1.0 + 1e-12) and np.all(off >= -1.0 - 1e-12)
        worst_eig = min(worst_eig, validate_psd(mat))
    assert worst_eig >= -1e-10


def test_family_validates_inputs():
    center = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(CorrelationError):
        CorrelationFamily(center=center, mode=np.array([1.0, -1.0]))
    with pytest.raises(CorrelationError):
        CorrelationFamily(center=center, mode=np.array([1.0, 1.0, 1.0]))
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


# ---------------------------------------------------------------------------
# exact sampling


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    custom_up=st.booleans(),
    custom_down=st.booleans(),
    kappa=st.sampled_from((0, 1)),
    u=st.floats(0.0, U_MAX),
)
def test_sampler_reproduces_family_exactly(seed, n, custom_up, custom_down, kappa, u):
    """The draw's linear map M = [S L_C, u S Xi L_D] has M M' = R(u, kappa)."""
    gen = np.random.default_rng(seed)
    fam = CorrelationFamily(
        center=random_correlation(gen, n),
        mode=gen.uniform(0.2, 5.0, size=n),
        up=random_correlation(gen, n) if custom_up else None,
        down=random_correlation(gen, n) if custom_down else None,
    )
    # feeding the unit vectors of R^2n returns the columns of the linear map
    us = np.full(2 * n, u)
    kappas = np.full(2 * n, kappa)
    lin = fam.draw(np.eye(2 * n), us, kappas).T
    assert lin.shape == (n, 2 * n)
    mat = fam.evaluate(u, kappa)
    assert np.max(np.abs(lin @ lin.T - mat)) < 1e-12
    level = fam.mean_correlation(us[:1], kappas[:1])[0]
    expected = mat[~np.eye(n, dtype=bool)].mean() if n > 1 else 0.0
    assert abs(level - expected) < 1e-12
    # quadratic forms of loading rows, one branch for all rows and mixed per row
    loads = gen.standard_normal((4, n))
    size = np.square(np.abs(loads).sum(axis=1))
    one = fam.quad_form(loads, np.full(4, u), kappa)
    assert np.all(np.abs(one - np.einsum("pi,ij,pj->p", loads, mat, loads)) < 1e-12 * size)
    mixed = np.array([0, 1, 1, 0])
    both = fam.quad_form(loads, np.full(4, u), mixed)
    for p, k in enumerate(mixed):
        assert abs(both[p] - loads[p] @ fam.evaluate(u, k) @ loads[p]) < 1e-12 * size[p]
    assert np.array_equal(both[mixed == kappa], one[mixed == kappa])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    custom_up=st.booleans(),
    custom_down=st.booleans(),
    kappa=st.sampled_from((0, 1)),
    lam=st.floats(0.01, 0.99),
)
def test_quad_form_slope_is_the_lambda_derivative(seed, n, custom_up, custom_down, kappa, lam):
    """quad_form_slope returns quad_form's bits and its derivative in lambda = u^2/(1+u^2)."""
    gen = np.random.default_rng(seed)
    fam = CorrelationFamily(
        center=random_correlation(gen, n),
        mode=gen.uniform(0.2, 5.0, size=n),
        up=random_correlation(gen, n) if custom_up else None,
        down=random_correlation(gen, n) if custom_down else None,
    )
    loads = gen.standard_normal((4, n))

    def at(x):
        return np.full(4, np.sqrt(x / (1.0 - x)))

    value, slope = fam.quad_form_slope(loads, at(lam), kappa)
    assert np.array_equal(value, fam.quad_form(loads, at(lam), kappa))
    h = 1e-6
    central = (fam.quad_form(loads, at(lam + h), kappa) - fam.quad_form(loads, at(lam - h), kappa)) / (2 * h)
    size = np.square(np.abs(loads).sum(axis=1))
    assert np.all(np.abs(slope - central) < 1e-6 * size)
