"""Copula basket pricing tests against conditioning and Black oracles."""

import numpy as np
import pytest

from localcorr.copula import (
    CopulaSpec,
    copula_basket_call,
    fit_flat_correlation,
    flat_correlation,
    marginal_tables,
    skew_comparison,
)
from localcorr.errors import CorrelationError, PricingError
from localcorr.marketdata.black import implied_vol
from localcorr.marketdata.curves import RateCurve
from localcorr.marketdata.snapshot import IndexComposition, MarketSnapshot

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


def test_sobol_beats_pseudo():
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
    pseudo = copula_basket_call(
        snap,
        CopulaSpec(correlation=corr, n_samples=1 << 16, seed=11, sampler="pseudo"),
        EXPIRY, [fwd],
    )
    assert quasi.stderrs[0] < pseudo.stderrs[0]
    assert abs(pseudo.prices[0] - want) < 5.0 * pseudo.stderrs[0]


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
    assert report.market_skew == pytest.approx(0.0, abs=1e-12)
    assert abs(report.copula_skew) < 3e-3
    assert abs(report.skew_gap) < 3e-3
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
    assert report.market_skew > 0.015
    assert report.skew_gap > 0.01
    # an equicorrelation matrix on the spec also suppresses the fit
    eq = skew_comparison(
        snap,
        CopulaSpec(correlation=flat_correlation(2, 0.5), n_samples=1 << 16, seed=19),
        EXPIRY,
        (0.9, 1.0, 1.1),
    )
    assert eq.flat_rho == 0.5
    assert np.allclose(eq.copula_vols, report.copula_vols)


# ---------------------------------------------------------------------------
# configuration and validation


def test_spec_validation():
    with pytest.raises(PricingError):
        CopulaSpec(n_samples=500)
    with pytest.raises(PricingError):
        CopulaSpec(sampler="quasi")
    with pytest.raises(CorrelationError):
        CopulaSpec(correlation=np.array([[1.0, 0.9], [0.9, 0.5]]))
    spec = CopulaSpec(n_samples=1000)
    assert spec.partition_size == 64  # next power of 2 above 63
    assert spec.total_samples == 1024
    pseudo = CopulaSpec(n_samples=1000, sampler="pseudo")
    assert pseudo.partition_size == 63
    assert pseudo.total_samples == 1008


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
