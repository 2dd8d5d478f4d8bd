"""Synthetic market generator tests."""

import json

import numpy as np
import pytest

from localcorr.errors import RecipeError
from localcorr.synth import (
    VOL_MIN,
    AssetRecipe,
    SyntheticRecipe,
    _fill_gaps,
    build_snapshot,
    recipe_from_dict,
    recipe_to_dict,
    tanh_vol,
)

from helpers import bisect_implied_vol, cond_basket_call

# ---------------------------------------------------------------------------
# recipes


def _pair_recipe(**kwargs):
    assets = (
        AssetRecipe("AAA", spot=100.0, base_vol=0.2),
        AssetRecipe("BBB", spot=120.0, base_vol=0.25),
    )
    defaults = dict(assets=assets, correlation=0.3, seed=11)
    defaults.update(kwargs)
    return SyntheticRecipe(**defaults)


def test_single_asset_index_carries_rows_exactly():
    recipe = SyntheticRecipe(
        assets=(AssetRecipe("AAA", spot=100.0, base_vol=0.22, skew=0.04),),
        correlation=1.0,
    )
    snap = build_snapshot(recipe)
    asset_rows = snap.asset("AAA").vol_surface.vols
    index_rows = snap.index.vol_surface.vols
    for a, b in zip(asset_rows, index_rows):
        assert np.array_equal(a, b)
    assert snap.index.spot == 100.0
    assert snap.meta["name"] == "copula-consistent"


def test_pair_index_smile_matches_conditioning_quadrature():
    snap = build_snapshot(_pair_recipe())
    cs = snap.call_surface("IDX")
    fwds = [100.0 * np.exp(0.02), 120.0 * np.exp(0.02)]
    df = np.exp(-0.02)
    fwd_b = 0.5 * (fwds[0] + fwds[1])
    for m in (0.8, 1.0, 1.2):
        k = m * fwd_b
        want_price = cond_basket_call(fwds, (0.2, 0.25), (0.5, 0.5), 0.3, k, 1.0, df=df)
        want_vol = bisect_implied_vol(want_price, fwd_b, k, 1.0, df=df)
        assert cs.implied_vol(1.0, k) == pytest.approx(want_vol, abs=5e-4)


def test_steepened_generator_adds_the_stated_tilt():
    flat = build_snapshot(_pair_recipe())
    steep = build_snapshot(_pair_recipe(generator="steepened", steepen=0.08))
    assert steep.meta["name"] == "steepened"
    m = np.asarray(flat.meta["recipe"]["moneyness"], dtype=float)
    for row_f, row_s in zip(flat.index.vol_surface.vols, steep.index.vol_surface.vols):
        assert np.allclose(row_s - row_f, 0.08 * (1.0 - m), atol=1e-12)
    # downside vols go up, upside vols come down
    cs_f, cs_s = flat.call_surface("IDX"), steep.call_surface("IDX")
    fwd = cs_f.forward(1.0)
    skew_f = cs_f.implied_vol(1.0, 0.8 * fwd) - cs_f.implied_vol(1.0, 1.2 * fwd)
    skew_s = cs_s.implied_vol(1.0, 0.8 * fwd) - cs_s.implied_vol(1.0, 1.2 * fwd)
    assert skew_s > skew_f + 0.02


def test_copula_consistent_rejects_band_escape():
    with pytest.raises(RecipeError, match="dispersion band"):
        build_snapshot(_pair_recipe(index_vol_shift=0.30))


def test_ground_truth_generator_matches_copula_at_the_money():
    """Flat vols and a pinned center make the engine law equal the copula law."""
    kwargs = dict(
        maturities=(0.5, 1.0),
        moneyness=tuple(np.round(np.arange(0.8, 1.201, 0.1), 10)),
    )
    copula = build_snapshot(_pair_recipe(**kwargs))
    ground = build_snapshot(
        _pair_recipe(
            generator="lcm-ground-truth",
            generator_paths=20_000,
            generator_steps=25,
            **kwargs,
        )
    )
    assert ground.meta["name"] == "lcm-ground-truth"
    cs_c, cs_g = copula.call_surface("IDX"), ground.call_surface("IDX")
    for t in (0.5, 1.0):
        fwd = cs_c.forward(t)
        assert cs_g.implied_vol(t, fwd) == pytest.approx(cs_c.implied_vol(t, fwd), abs=4e-3)


def test_weighted_matrix_recipe_builds_and_round_trips():
    """Explicit weights and a center matrix reach the snapshot and survive JSON."""
    center = [[1.0, 0.4, 0.3], [0.4, 1.0, 0.5], [0.3, 0.5, 1.0]]
    recipe = SyntheticRecipe(
        assets=(AssetRecipe("AAA"), AssetRecipe("BBB", spot=80.0, base_vol=0.25),
                AssetRecipe("CCC", spot=120.0)),
        correlation=center, weights=(0.5, 0.3, 0.2), generator="steepened",
        maturities=(0.5, 1.0), n_samples=1 << 14,
    )
    snap = build_snapshot(recipe)
    assert np.array_equal(snap.weights, [0.5, 0.3, 0.2])
    assert snap.index.spot == pytest.approx(0.5 * 100.0 + 0.3 * 80.0 + 0.2 * 120.0)
    raw = recipe_to_dict(recipe)
    assert raw["correlation"] == center and raw["weights"] == [0.5, 0.3, 0.2]
    assert recipe_to_dict(recipe_from_dict(json.loads(json.dumps(raw)))) == raw
    assert snap.meta["recipe"] == raw


def test_fill_gaps_interpolates_inside_and_holds_the_ends():
    vals = np.array([np.nan, 0.2, np.nan, 0.3, np.inf, np.nan])
    filled = _fill_gaps(vals, "T=1")
    assert np.array_equal(filled, [0.2, 0.2, 0.25, 0.3, 0.3, 0.3])
    assert np.isnan(vals[0])  # the input is left as it was
    clean = np.array([0.2, 0.3])
    assert _fill_gaps(clean, "T=1") is clean
    with pytest.raises(RecipeError, match="T=2"):
        _fill_gaps(np.full(4, np.nan), "T=2")


def test_build_is_reproducible():
    a = build_snapshot(_pair_recipe())
    b = build_snapshot(_pair_recipe())
    for ra, rb in zip(a.index.vol_surface.vols, b.index.vol_surface.vols):
        assert np.array_equal(ra, rb)


# ---------------------------------------------------------------------------
# closed-form smiles


def test_tanh_vol_shape_and_clipping():
    assert tanh_vol(1.0, 0.0, base=0.2) == pytest.approx(0.2)
    assert tanh_vol(2.0, 0.0, base=0.2, term=0.1) == pytest.approx(0.22)
    # positive skew raises the downside and lowers the upside
    assert tanh_vol(1.0, -0.3, base=0.2, skew=0.05) > 0.2
    assert tanh_vol(1.0, 0.3, base=0.2, skew=0.05) < 0.2
    # saturation keeps far wings at base +/- skew
    assert tanh_vol(1.0, -50.0, base=0.2, skew=0.05) == pytest.approx(0.25)
    # the floor catches smiles that would cross zero
    assert tanh_vol(1.0, 50.0, base=0.03, skew=0.05) == VOL_MIN


# ---------------------------------------------------------------------------
# recipe serialization and validation


def test_recipe_round_trip():
    recipe = _pair_recipe(weights=(0.6, 0.4), generator="steepened", steepen=0.05)
    raw = recipe_to_dict(recipe)
    back = recipe_from_dict(raw)
    assert back == recipe
    mat = [[1.0, 0.4], [0.4, 1.0]]
    rich = recipe_from_dict({**raw, "correlation": mat})
    assert np.allclose(rich.center_matrix(), mat)


def test_recipe_rejects_unknown_fields():
    raw = recipe_to_dict(_pair_recipe())
    with pytest.raises(RecipeError, match="unknown recipe fields"):
        recipe_from_dict({**raw, "vol_cap": 1.0})
    bad_asset = dict(raw)
    bad_asset["assets"] = [{**raw["assets"][0], "beta": 1.0}, raw["assets"][1]]
    with pytest.raises(RecipeError, match="unknown asset fields"):
        recipe_from_dict(bad_asset)
    anon = dict(raw)
    anon["assets"] = [{"spot": 100.0}]
    with pytest.raises(RecipeError, match="asset_id"):
        recipe_from_dict(anon)
    with pytest.raises(RecipeError):
        recipe_from_dict({"seed": 3})


def test_recipe_validation():
    with pytest.raises(RecipeError):
        AssetRecipe("AAA", spot=-1.0)
    with pytest.raises(RecipeError):
        AssetRecipe("AAA", base_vol=5.0)
    with pytest.raises(RecipeError):
        AssetRecipe("AAA", width=0.0)
    good = (AssetRecipe("AAA"), AssetRecipe("BBB"))
    with pytest.raises(RecipeError):
        SyntheticRecipe(assets=())
    with pytest.raises(RecipeError):
        SyntheticRecipe(assets=(AssetRecipe("AAA"), AssetRecipe("AAA")))
    with pytest.raises(RecipeError):
        SyntheticRecipe(assets=good, generator="historical")
    with pytest.raises(RecipeError):
        SyntheticRecipe(assets=good, weights=(1.0,))
    with pytest.raises(RecipeError):
        SyntheticRecipe(assets=good, maturities=(1.0, 0.5))
    with pytest.raises(RecipeError):
        SyntheticRecipe(assets=good, moneyness=(0.9, 1.1))
