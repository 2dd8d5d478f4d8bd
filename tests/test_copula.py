"""Copula basket pricing tests against conditioning and Black oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr

from localcorr import copula
from localcorr.copula import (
    CopulaSpec,
    _baskets,
    _normal_cube,
    _sort_order,
    copula_basket_call,
    fit_flat_correlation,
    flat_correlation,
    marginal_tables,
    skew_comparison,
)
from localcorr.corrfam import cholesky_lower
from localcorr.dupire import InverseCdfTable
from localcorr.errors import CorrelationError, PricingError
from localcorr.marketdata.black import implied_vol
from localcorr.marketdata.curves import RateCurve
from localcorr.marketdata.snapshot import IndexComposition, MarketSnapshot
from localcorr.synth import AssetRecipe, SyntheticRecipe, build_snapshot

from helpers import (
    AS_OF,
    bisect_implied_vol,
    cond_basket_call,
    flat_quote,
    flat_snapshot,
    index_quote,
    quad_black_call,
)

EXPIRY = 1.0

# ---------------------------------------------------------------------------
# builders


def _pair_snapshot(vols=(0.2, 0.25)):
    return flat_snapshot(
        [("AAA", 100.0, vols[0]), ("BBB", 120.0, vols[1])], [0.5, 0.5], 0.2
    )


def _smiled_single_snapshot():
    """One asset with a real smile so the marginal law is not lognormal."""
    rc = RateCurve.flat(0.02)

    def vol_fn(t, k):
        x = np.log(k / (100.0 * np.exp(0.02 * t)))
        return 0.2 + 0.04 * np.tanh(-x / 0.5) + 0.05 * x * x

    asset = index_quote("AAA", 100.0, vol_fn, rc)
    index = index_quote("IDX", 100.0, vol_fn, rc)
    return MarketSnapshot(
        as_of=AS_OF,
        discount_curve=rc,
        assets=(asset,),
        index=index,
        composition=IndexComposition(("AAA",), np.array([1.0])),
    )


# ---------------------------------------------------------------------------
# pricing accuracy


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_two_asset_matches_conditioning_oracle(rho):
    snap = _pair_snapshot()
    spec = CopulaSpec(correlation=flat_correlation(2, rho), n_samples=1 << 18, seed=1)
    fwds = [100.0 * np.exp(0.02), 120.0 * np.exp(0.02)]
    df = np.exp(-0.02)
    basket_fwd = 0.5 * fwds[0] + 0.5 * fwds[1]
    strikes = np.array([0.7, 0.85, 1.0, 1.15, 1.3]) * basket_fwd
    got = copula_basket_call(snap, spec, EXPIRY, strikes)
    assert got.basket_forward == pytest.approx(basket_fwd, rel=1e-12)
    for j, k in enumerate(strikes):
        want = cond_basket_call(fwds, (0.2, 0.25), (0.5, 0.5), rho, k, EXPIRY, df=df)
        assert got.prices[j] == pytest.approx(want, rel=5e-4)


def test_single_asset_collapses_to_black():
    snap = flat_snapshot([("AAA", 100.0, 0.2)], [1.0], 0.2)
    spec = CopulaSpec(correlation=np.eye(1), n_samples=1 << 16, seed=3)
    fwd = 100.0 * np.exp(0.02)
    df = np.exp(-0.02)
    strikes = np.array([0.8, 1.0, 1.2]) * fwd
    got = copula_basket_call(snap, spec, EXPIRY, strikes)
    for j, k in enumerate(strikes):
        want = quad_black_call(fwd, k, EXPIRY, 0.2, df=df)
        assert got.prices[j] == pytest.approx(want, rel=5e-4)
        assert abs(got.prices[j] - want) < max(5.0 * got.stderrs[j], 1e-4)
    # the reported smile inverts back to the input vol
    ivs = got.implied_vols()
    assert np.max(np.abs(ivs - 0.2)) < 5e-4
    assert ivs[1] == pytest.approx(
        bisect_implied_vol(got.prices[1], fwd, strikes[1], EXPIRY, df=df), abs=1e-6
    )


def test_comonotone_pair_is_lognormal():
    """Identical marginals under correlation one add up to one lognormal."""
    snap = flat_snapshot([("AAA", 100.0, 0.2), ("BBB", 100.0, 0.2)], [0.5, 0.5], 0.2)
    spec = CopulaSpec(correlation=flat_correlation(2, 1.0), n_samples=1 << 16, seed=5)
    fwd = 100.0 * np.exp(0.02)
    df = np.exp(-0.02)
    strikes = np.array([0.85, 1.0, 1.15]) * fwd
    got = copula_basket_call(snap, spec, EXPIRY, strikes)
    for j, k in enumerate(strikes):
        want = quad_black_call(fwd, k, EXPIRY, 0.2, df=df)
        assert got.prices[j] == pytest.approx(want, rel=5e-4)


def test_marginals_reprice_their_own_strip():
    """A one asset basket must return the asset's own smile, skew included."""
    snap = _smiled_single_snapshot()
    spec = CopulaSpec(correlation=np.eye(1), n_samples=1 << 17, seed=7)
    cs = snap.call_surface("AAA")
    fwd = cs.forward(EXPIRY)
    strikes = np.array([0.8, 0.9, 1.0, 1.1, 1.2]) * fwd
    got = copula_basket_call(snap, spec, EXPIRY, strikes)
    for j, k in enumerate(strikes):
        assert got.prices[j] == pytest.approx(cs.price(EXPIRY, k), rel=1e-3)
    # the recovered smile keeps the downside skew of the input surface
    ivs = got.implied_vols()
    assert ivs[0] > ivs[-1] + 0.01


def test_basket_call_increases_with_correlation():
    snap = _pair_snapshot()
    fwd = 0.5 * 100.0 * np.exp(0.02) + 0.5 * 120.0 * np.exp(0.02)
    prices = []
    err = 0.0
    for rho in (0.0, 0.4, 0.8):
        spec = CopulaSpec(correlation=flat_correlation(2, rho), n_samples=1 << 15, seed=9)
        got = copula_basket_call(snap, spec, EXPIRY, [fwd])
        prices.append(got.prices[0])
        err = max(err, got.stderrs[0])
    assert prices[0] < prices[1] < prices[2]
    assert prices[2] - prices[0] > 3.0 * err


def test_sobol_price_matches_quadrature():
    snap = _pair_snapshot()
    fwd = 0.5 * 100.0 * np.exp(0.02) + 0.5 * 120.0 * np.exp(0.02)
    df = np.exp(-0.02)
    want = cond_basket_call(
        [100.0 * np.exp(0.02), 120.0 * np.exp(0.02)], (0.2, 0.25), (0.5, 0.5),
        0.5, fwd, EXPIRY, df=df,
    )
    corr = flat_correlation(2, 0.5)
    quasi = copula_basket_call(
        snap, CopulaSpec(correlation=corr, n_samples=1 << 16, seed=11), EXPIRY, [fwd]
    )
    assert abs(quasi.prices[0] - want) < 5.0 * quasi.stderrs[0]


# ---------------------------------------------------------------------------
# correlation fitting and skew reports


def test_fit_flat_correlation_recovers_known_level():
    rho_true = 0.55
    rc = RateCurve.flat(0.02)
    specs = [("AAA", 100.0, 0.2), ("BBB", 90.0, 0.25), ("CCC", 110.0, 0.3)]
    w = np.full(3, 1.0 / 3.0)
    spec = CopulaSpec(n_samples=1 << 15, seed=13)

    # price the basket once, then build an index surface at that exact vol;
    # the probe strike must be the same float the fit uses so both runs
    # measure on the same parity side
    probe = flat_snapshot(specs, w, 0.2)
    priced = copula_basket_call(
        probe,
        CopulaSpec(correlation=flat_correlation(3, rho_true), n_samples=1 << 15, seed=13),
        EXPIRY,
        [probe.call_surface("IDX").forward(EXPIRY)],
    )
    iv_star = implied_vol(
        priced.prices[0], priced.basket_forward, priced.strikes[0], EXPIRY, priced.df
    )
    snap = flat_snapshot(specs, w, iv_star)
    fitted = fit_flat_correlation(snap, spec, EXPIRY)
    assert fitted == pytest.approx(rho_true, abs=1e-4)


def test_fit_rejects_unreachable_index_price():
    specs = [("AAA", 100.0, 0.2), ("BBB", 90.0, 0.25), ("CCC", 110.0, 0.3)]
    snap = flat_snapshot(specs, np.full(3, 1.0 / 3.0), 0.5)
    with pytest.raises(PricingError, match="reachable"):
        fit_flat_correlation(snap, CopulaSpec(n_samples=1 << 14, seed=15), EXPIRY)


def test_skew_comparison_flat_market():
    """A flat index over flat constituents leaves almost no skew gap."""
    snap = flat_snapshot(
        [("AAA", 100.0, 0.2), ("BBB", 100.0, 0.2)], [0.5, 0.5], 0.2 * np.sqrt(0.75)
    )
    spec = CopulaSpec(n_samples=1 << 16, seed=17)
    report = skew_comparison(snap, spec, EXPIRY, (0.9, 1.0, 1.1), rho=0.5)
    assert report.flat_rho == 0.5
    market_skew = report.market_vols[0] - report.market_vols[-1]
    copula_skew = report.copula_vols[0] - report.copula_vols[-1]
    assert market_skew == pytest.approx(0.0, abs=1e-12)
    assert abs(copula_skew) < 3e-3
    assert abs(market_skew - copula_skew) < 3e-3
    assert len(report.rows()) == 3


def test_skew_comparison_steepened_market():
    """A steepened index smile opens a gap no flat copula can close."""
    rc = RateCurve.flat(0.02)
    assets = tuple(
        flat_quote(aid, s, v, rc) for aid, s, v in
        [("AAA", 100.0, 0.2), ("BBB", 100.0, 0.2)]
    )
    atm = 0.2 * np.sqrt(0.75)

    def vol_fn(t, k):
        x = np.log(k / (100.0 * np.exp(0.02 * t)))
        return atm - 0.03 * np.tanh(x / 0.25)

    snap = MarketSnapshot(
        as_of=AS_OF,
        discount_curve=rc,
        assets=assets,
        index=index_quote("IDX", 100.0, vol_fn, rc),
        composition=IndexComposition(("AAA", "BBB"), np.array([0.5, 0.5])),
    )
    spec = CopulaSpec(n_samples=1 << 16, seed=19)
    report = skew_comparison(snap, spec, EXPIRY, (0.9, 1.0, 1.1), rho=0.5)
    market_skew = report.market_vols[0] - report.market_vols[-1]
    assert market_skew > 0.015
    assert market_skew - (report.copula_vols[0] - report.copula_vols[-1]) > 0.01


# ---------------------------------------------------------------------------
# configuration and validation


def test_spec_validation():
    with pytest.raises(PricingError):
        CopulaSpec(n_samples=500)
    # scrambled Sobol is the one sampler
    assert [f.name for f in dataclasses.fields(CopulaSpec)] == ["correlation", "n_samples", "seed"]
    with pytest.raises(TypeError):
        CopulaSpec(sampler="pseudo")
    with pytest.raises(CorrelationError):
        CopulaSpec(correlation=np.array([[1.0, 0.9], [0.9, 0.5]]))
    for name in ("n_samples", "seed"):
        for bad in (True, 5000.5, 4096.0, np.float64(4096.0), "4096", 10**400):
            with pytest.raises(PricingError, match=f"{name} must be an integer"):
                CopulaSpec(**{name: bad})
    assert CopulaSpec(n_samples=np.int64(4096), seed=np.int64(3)).seed == 3
    spec = CopulaSpec(n_samples=1000)
    assert spec.partition_size == 64  # next power of 2 above 63
    assert spec.total_samples == 1024


def test_pricing_validation():
    snap = _pair_snapshot()
    with pytest.raises(PricingError):
        copula_basket_call(snap, CopulaSpec(), EXPIRY, [100.0])
    spec3 = CopulaSpec(correlation=flat_correlation(3, 0.5))
    with pytest.raises(CorrelationError):
        copula_basket_call(snap, spec3, EXPIRY, [100.0])
    spec2 = CopulaSpec(correlation=flat_correlation(2, 0.5))
    with pytest.raises(PricingError):
        copula_basket_call(snap, spec2, 0.0, [100.0])


def test_flat_correlation_bounds():
    with pytest.raises(CorrelationError):
        flat_correlation(0, 0.5)
    with pytest.raises(CorrelationError):
        flat_correlation(3, -0.6)  # below -1/(n-1)
    with pytest.raises(CorrelationError):
        flat_correlation(2, 1.1)
    mat = flat_correlation(4, -0.3)
    assert np.min(np.linalg.eigvalsh(mat)) > -1e-12


def test_marginal_tables_and_counters():
    snap = _pair_snapshot()
    tables = marginal_tables(snap, EXPIRY)
    assert len(tables) == 2
    got = copula_basket_call(
        snap, CopulaSpec(correlation=flat_correlation(2, 0.5), n_samples=1 << 14, seed=21),
        EXPIRY, [110.0],
    )
    assert got.counters["clamped"] == 0
    assert got.n_samples == 1 << 14


# ---------------------------------------------------------------------------
# shared uniforms against the per-partition draw


def _per_partition_baskets(snapshot, cube, chol, expiry):
    """Basket samples drawn partition by partition, one inversion per asset each."""
    tables = marginal_tables(snapshot, expiry)
    baskets = np.zeros(cube.shape[:2])
    for p in range(cube.shape[0]):
        u = np.clip(ndtr(cube[p] @ chol.T), 1e-12, 1.0 - 1e-12)
        for i, table in enumerate(tables):
            baskets[p] += snapshot.weights[i] * table.invert(u[:, i])
    return baskets, sum(t.counters.get("clamped", 0) for t in tables)


def _oracle_prices(baskets, strikes, fwd, df):
    prices, errs = [], []
    for k in strikes:
        if k <= fwd:
            per_part = df * (fwd - k + np.maximum(k - baskets, 0.0).mean(axis=1))
        else:
            per_part = df * np.maximum(baskets - k, 0.0).mean(axis=1)
        prices.append(per_part.mean())
        errs.append(per_part.std(ddof=1) / np.sqrt(baskets.shape[0]))
    return np.array(prices), np.array(errs)


def _smiled_basket(n, seed):
    rng = np.random.default_rng(seed)
    rc = RateCurve.flat(0.02)

    def smile(level, skew):
        return lambda t, k: level + skew * np.tanh(-np.log(k / 100.0) / 0.5)

    assets = tuple(index_quote(f"A{i}", 100.0, smile(rng.uniform(0.15, 0.35),
                                                     rng.uniform(0.0, 0.06)), rc)
                   for i in range(n))
    weights = rng.uniform(0.5, 1.5, n)
    return MarketSnapshot(
        as_of=AS_OF, discount_curve=rc, assets=assets,
        index=index_quote("IDX", 100.0, lambda t, k: 0.2, rc),
        composition=IndexComposition(tuple(a.asset_id for a in assets), weights / weights.sum()),
    )


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), rho=st.floats(0.0, 0.95), seed=st.integers(0, 2**31 - 1),
       n_samples=st.sampled_from([1000, 3000]),
       expiries=st.lists(st.sampled_from([0.25, 1.0, 2.0, 2.7]), min_size=2, max_size=3))
def test_basket_prices_are_the_per_partition_draw_bit_for_bit(n, rho, seed, n_samples, expiries):
    snap = _smiled_basket(n, seed)
    spec = CopulaSpec(correlation=flat_correlation(n, rho), n_samples=n_samples, seed=seed)
    cube = _normal_cube(spec, n)
    chol = cholesky_lower(spec.correlation)
    for expiry in expiries:  # one spec across maturities, as the synthetic generator prices
        got = copula_basket_call(snap, spec, expiry, np.array([80.0, 100.0, 125.0]))
        baskets, clamped = _per_partition_baskets(snap, cube, chol, expiry)
        prices, errs = _oracle_prices(baskets, got.strikes, got.basket_forward, got.df)
        assert prices.tobytes() == got.prices.tobytes()
        assert errs.tobytes() == got.stderrs.tobytes()
        assert got.counters == {"clamped": clamped}


def test_basket_forward_is_the_index_forward_bit_for_bit():
    """The copula prices against the snapshot's index forward, the one synth strikes off."""
    assets = (AssetRecipe("AAA", base_vol=0.2, skew=0.05, dividend=0.01),
              AssetRecipe("BBB", spot=80.0, base_vol=0.26, skew=0.06, dividend=0.03),
              AssetRecipe("CCC", spot=120.0, base_vol=0.23, skew=0.04))
    snap = build_snapshot(SyntheticRecipe(
        assets=assets, correlation=0.45, weights=(0.5, 0.3, 0.2), generator="steepened",
        steepen=0.06, n_samples=4096))
    spec = CopulaSpec(correlation=flat_correlation(3, 0.45), n_samples=2000)
    for expiry in (0.15, 0.4, 0.75, 1.0, 1.3, 2.5):
        got = copula_basket_call(snap, spec, expiry, [100.0])
        assert got.basket_forward == snap.forward_curve("IDX").forward(expiry)


@pytest.mark.parametrize("sampler", ["sobol"])
def test_fit_flat_correlation_is_the_per_partition_draw_bit_for_bit(sampler):
    snap = _pair_snapshot()
    spec = CopulaSpec(n_samples=2000, seed=5)
    cube = _normal_cube(spec, 2)
    index_cs = snap.call_surface("IDX")
    strike = index_cs.forward(EXPIRY)
    target = index_cs.price(EXPIRY, strike)
    fwd = sum(w * snap.forward_curve(a).forward(EXPIRY)
              for w, a in zip(snap.weights, snap.composition.ids))
    df = snap.discount_curve.discount(EXPIRY)

    def gap(rho):
        baskets, _ = _per_partition_baskets(
            snap, cube, cholesky_lower(flat_correlation(2, rho)), EXPIRY)
        return float(_oracle_prices(baskets, [float(strike)], fwd, df)[0][0] - target)

    want = float(brentq(gap, -1.0 + 1e-6, 1.0 - 1e-9, xtol=1e-10))
    assert fit_flat_correlation(snap, spec, EXPIRY) == want


# ---------------------------------------------------------------------------
# sorted inversion against per-element np.interp


def _per_element_marginal(table, u):
    """Strike of each probability by its own scalar ``np.interp`` call, and the clamp count."""
    lo, hi = table._cdf_strict[0], table._cdf_strict[-1]
    x = [np.interp(min(max(p, lo), hi), table._cdf_strict, table.log_strikes) for p in u.ravel()]
    return np.exp(np.array(x)).reshape(u.shape), int(np.count_nonzero((u < lo) | (u > hi)))


def _per_element_baskets(u, tables, weights):
    baskets = np.zeros(u.shape[:2])
    clamped = []
    for i, table in enumerate(tables):
        values, n_clamped = _per_element_marginal(table, u[:, :, i])
        baskets += weights[i] * values
        clamped.append(n_clamped)
    return baskets, clamped


@pytest.mark.parametrize("sampler", ["sobol"])
def test_copula_baskets_are_per_element_inversions(monkeypatch, sampler):
    snap = _smiled_basket(3, 7)
    spec = CopulaSpec(correlation=flat_correlation(3, 0.6), n_samples=1000, seed=3)
    seen = []
    priced = copula._prices_from_baskets

    def recorded(baskets, *args):
        seen.append(baskets.copy())
        return priced(baskets, *args)

    monkeypatch.setattr(copula, "_prices_from_baskets", recorded)
    cube = _normal_cube(spec, 3)
    chol = cholesky_lower(spec.correlation)
    u = np.stack([np.clip(ndtr(c @ chol.T), 1e-12, 1.0 - 1e-12) for c in cube])
    for expiry in (0.25, 2.7):
        got = copula_basket_call(snap, spec, expiry, [100.0])
        want, clamped = _per_element_baskets(u, marginal_tables(snap, expiry), snap.weights)
        assert seen[-1].tobytes() == want.tobytes()
        assert got.counters == {"clamped": sum(clamped)}


def _edge_table(seed):
    """A table whose probabilities span only part of (0, 1), with a flat stretch."""
    rng = np.random.default_rng(seed)
    cdf = np.concatenate([np.linspace(0.02, 0.4, 60), np.full(20, 0.4),
                          np.sort(rng.uniform(0.4, 0.97, 61))])
    return InverseCdfTable(expiry=1.0, log_strikes=np.linspace(-1.0, 1.0, cdf.size), cdf=cdf)


def test_sorted_inversion_is_per_element_interp_at_and_beyond_the_edges():
    tables = [_edge_table(1), _edge_table(2)]
    weights = np.array([0.7, 0.3])
    u = np.random.default_rng(9).uniform(1e-12, 1.0 - 1e-12, size=(4, 50, 2))
    for i, table in enumerate(tables):
        lo, hi = table._cdf_strict[0], table._cdf_strict[-1]
        edges = [1e-12, 0.5 * lo, np.nextafter(lo, 0.0), lo, np.nextafter(lo, 1.0),
                 table._cdf_strict[70], np.nextafter(hi, 0.0), hi, np.nextafter(hi, 1.0),
                 0.5 * (1.0 + hi), 1.0 - 1e-12]
        u[0, :len(edges), i] = edges
        u[3, -len(edges):, i] = edges[::-1]
    want, clamped = _per_element_baskets(u, [_edge_table(1), _edge_table(2)], weights)
    got = _baskets(u, _sort_order(u), tables, weights)
    assert got.tobytes() == want.tobytes()
    assert [t.counters["clamped"] for t in tables] == clamped
    assert min(clamped) >= 12  # three probabilities beyond each edge, placed twice
