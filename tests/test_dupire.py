"""Tests for local vol extraction, implied densities, and inverse CDF tables."""

import copy

import numpy as np
import pytest
from scipy.stats import lognorm

from localcorr.dupire import (
    LocalVolSurface,
    calibrate_local_vol,
    cumulative,
    implied_density,
    inverse_cdf,
    local_vol,
)
from localcorr.errors import PricingError
from localcorr.marketdata.curves import ForwardCurve, RateCurve
from localcorr.marketdata.surfaces import CallSurface, VolSurface

RATE = RateCurve.flat(0.02)
_M = np.arange(0.5, 1.61, 0.05)


def _flat_surface(vol=0.2, spot=100.0, dividend=0.01, maturities=(0.25, 0.5, 1.0, 1.5, 2.0, 2.5)):
    fc = ForwardCurve(spot, RATE, RateCurve.flat(dividend))
    mats = np.asarray(maturities, dtype=float)
    vs = VolSurface(
        maturities=mats,
        strikes=tuple(_M * fc.forward(t) for t in mats),
        vols=tuple(np.full(_M.size, vol) for _ in mats),
    )
    return CallSurface(vs, fc, "FLAT"), fc


def _term_surface(spot=100.0, maturities=np.arange(0.125, 2.626, 0.125)):
    """Implied variance v(T) = 0.04 + 0.015 T, no smile.

    Instantaneous variance is then d(vT)/dT = 0.04 + 0.03 T.
    """
    fc = ForwardCurve(spot, RATE, RateCurve.flat(0.0))
    mats = np.asarray(maturities, dtype=float)
    vols = [np.full(_M.size, np.sqrt(0.04 + 0.015 * t)) for t in mats]
    vs = VolSurface(
        maturities=mats,
        strikes=tuple(_M * fc.forward(t) for t in mats),
        vols=tuple(vols),
    )
    return CallSurface(vs, fc, "TERM"), fc


def _skew_surface(spot=100.0, maturities=(0.5, 1.0, 1.5, 2.0)):
    fc = ForwardCurve(spot, RATE, RateCurve.flat(0.015))
    mats = np.asarray(maturities, dtype=float)
    x = np.log(_M)
    vols = [0.22 + 0.05 * np.tanh(-x / 0.5) + 0.01 * (t - 1.0) for t in mats]
    vs = VolSurface(
        maturities=mats,
        strikes=tuple(_M * fc.forward(t) for t in mats),
        vols=tuple(vols),
    )
    return CallSurface(vs, fc, "SKEW"), fc


# ---------------------------------------------------------------------------
# local volatility


def test_flat_surface_recovers_flat_vol_exactly():
    """Local vol of a flat surface is the flat vol, including deep wings."""
    cs, fc = _flat_surface(vol=0.2)
    for t in np.linspace(0.1, 2.4, 12):
        spots = fc.forward(t) * np.linspace(0.5, 1.5, 15)
        lv = local_vol(cs, t, spots)
        assert np.max(np.abs(lv - 0.2)) < 1e-12


def test_term_structure_recovers_instantaneous_vol():
    """Local vol equals sqrt(d(total variance)/dT) when there is no smile."""
    cs, fc = _term_surface()
    worst = 0.0
    for t in np.linspace(0.2, 2.4, 12):
        target = np.sqrt(0.04 + 0.03 * t)
        spots = fc.forward(t) * np.linspace(0.7, 1.3, 9)
        lv = local_vol(cs, t, spots)
        worst = max(worst, float(np.max(np.abs(lv - target))))
    assert worst < 1e-3


def test_greek_ratio_assembly_matches_cancelled_form():
    """The calendar/carry/butterfly combination of raw Greeks reproduces the
    cancelled-form variance away from the wings, and breaks if the carry term
    uses the drift instead of the dividend yield."""
    cs, fc = _skew_surface()
    t = 1.2
    f = fc.forward(t)
    r = RATE.rate(t)
    q = r - fc.drift(t)
    for k in (0.9 * f, f, 1.1 * f):
        ev = cs.evaluate(t, k)
        price, c_k, c_kk = ev.price[0], ev.d_strike[0], ev.d2_strike[0]
        c_t = ev.d_expiry[0]
        numer = c_t + q * price + (r - q) * k * c_k
        denom = 0.5 * k * k * c_kk
        ratio = numer / denom
        lv2 = local_vol(cs, t, k) ** 2
        assert abs(ratio - lv2) < 1e-7 * lv2
        # replacing the dividend yield with the full drift shifts the result
        wrong = (c_t + (r - q) * price + (r - q) * k * c_k) / denom
        assert abs(wrong - lv2) > 1e-4 * lv2


def test_local_vol_scale_invariance():
    """Scaling spot and strikes by a constant leaves local vol unchanged."""
    cs1, fc1 = _skew_surface(spot=100.0)
    cs2, fc2 = _skew_surface(spot=1000.0)
    for t in (0.6, 1.3):
        m = np.array([0.85, 1.0, 1.2])
        lv1 = local_vol(cs1, t, m * fc1.forward(t))
        lv2 = local_vol(cs2, t, m * fc2.forward(t))
        assert np.allclose(lv1, lv2, rtol=1e-12, atol=0)


def test_local_vol_floors_and_counters():
    cs, fc = _flat_surface(vol=0.2)
    before = cs.counters["variance_clipped"]
    lv = local_vol(cs, 1.0, fc.forward(1.0), floors=(0.5, 5.0, 1e-12))
    assert lv == 0.5
    assert cs.counters["variance_clipped"] == before + 1


# ---------------------------------------------------------------------------
# densities and distribution functions


def test_density_matches_lognormal():
    cs, fc = _flat_surface(vol=0.25, dividend=0.0)
    t = 1.0
    f = fc.forward(t)
    s = 0.25 * np.sqrt(t)
    strikes = f * np.linspace(0.6, 1.5, 19)
    dens = implied_density(cs, t, strikes)
    ref = lognorm.pdf(strikes, s, scale=f * np.exp(-0.5 * s * s))
    assert np.max(np.abs(dens - ref) / ref) < 1e-9


def test_density_integrates_to_one():
    cs, fc = _flat_surface(vol=0.2)
    t = 1.5
    f = fc.forward(t)
    strikes = np.linspace(0.05 * f, 6.0 * f, 4000)
    dens = implied_density(cs, t, strikes)
    mass = np.trapezoid(dens, strikes)
    assert abs(mass - 1.0) < 1e-4


def test_cumulative_matches_lognormal():
    cs, fc = _flat_surface(vol=0.25, dividend=0.0)
    t = 0.75
    f = fc.forward(t)
    s = 0.25 * np.sqrt(t)
    strikes = f * np.linspace(0.6, 1.5, 19)
    cdf = cumulative(cs, t, strikes)
    ref = lognorm.cdf(strikes, s, scale=f * np.exp(-0.5 * s * s))
    assert np.max(np.abs(cdf - ref)) < 1e-9


def test_cumulative_monotone_inside_quoted_span():
    """Raw CDF is monotone across the quoted smile; the tabulated inverse is
    monotone everywhere because of the pool-adjacent-violators projection."""
    cs, fc = _skew_surface()
    t = 1.0
    f = fc.forward(t)
    strikes = f * np.exp(np.linspace(np.log(0.52), np.log(1.58), 1000))
    cdf = cumulative(cs, t, strikes)
    assert np.all(np.diff(cdf) > -1e-12)
    table = inverse_cdf(cs, t)
    assert np.all(np.diff(table.cdf) >= 0.0)
    assert table.cdf[0] < 1e-6 and table.cdf[-1] > 1.0 - 1e-6


def test_inverse_cdf_round_trip():
    cs, fc = _flat_surface(vol=0.25, dividend=0.0)
    t = 1.0
    table = inverse_cdf(cs, t)
    ps = np.linspace(0.01, 0.99, 25)
    strikes = table.invert(ps)
    back = cumulative(cs, t, strikes)
    # limited by linear interpolation on the 2001-point table
    assert np.max(np.abs(back - ps)) < 2e-5


def test_inverse_cdf_matches_lognormal_quantiles():
    cs, fc = _flat_surface(vol=0.25, dividend=0.0)
    t = 1.0
    f = fc.forward(t)
    s = 0.25 * np.sqrt(t)
    table = inverse_cdf(cs, t)
    ps = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    ref = lognorm.ppf(ps, s, scale=f * np.exp(-0.5 * s * s))
    got = table.invert(ps)
    assert np.max(np.abs(got - ref) / ref) < 1e-4
    # lognormal median sits below the forward by the usual convexity factor
    assert abs(table.invert(0.5) - f * np.exp(-0.5 * s * s)) < 1e-3 * f


def test_inverse_cdf_covers_deep_tail():
    """The default 10-stdev grid resolves even one-in-a-billion quantiles."""
    cs, fc = _flat_surface(vol=0.2)
    table = inverse_cdf(cs, 1.0)
    lo = table.invert(1e-9)
    f = fc.forward(1.0)
    s = 0.2
    ref = lognorm.ppf(1e-9, s, scale=f * np.exp(-0.5 * s * s))
    assert abs(lo - ref) / ref < 1e-2
    assert table.invert(0.5) < table.invert(0.9999)


def test_inverse_cdf_clamps_and_validates():
    from localcorr.dupire import InverseCdfTable

    table = InverseCdfTable(
        expiry=1.0,
        log_strikes=np.linspace(-0.1, 0.1, 11),
        cdf=np.linspace(0.3, 0.7, 11),
    )
    before = table.counters["clamped"]
    assert table.invert(0.01) == np.exp(-0.1)
    assert table.invert(0.99) == np.exp(0.1)
    assert table.counters["clamped"] == before + 2
    with pytest.raises(PricingError):
        table.invert(0.0)
    with pytest.raises(PricingError):
        table.invert(1.0)
    with pytest.raises(PricingError):
        table.invert(np.nan)


# ---------------------------------------------------------------------------
# tabulated surface


def test_calibrated_surface_interpolates_pointwise_values():
    cs, fc = _skew_surface()
    lvs = calibrate_local_vol(cs, horizon=2.0, n_times=32, n_spots=81)
    assert isinstance(lvs, LocalVolSurface)
    before = copy.deepcopy(vars(lvs))
    for i, t in enumerate(lvs.times):
        np.testing.assert_allclose(lvs.time_slice(t), lvs.values[i], rtol=0, atol=1e-14)
    # at the grid nodes the table returns the tabulated values exactly
    mid = lvs.log_spots.size // 2
    for i in (0, 7, 20):
        node = lvs(float(lvs.times[i]), float(np.exp(lvs.log_spots[mid])))
        assert abs(node - lvs.values[i, mid]) < 1e-12
    # interior bilinear queries stay close to the direct pointwise extraction
    for t in (0.4, 1.1, 1.9):
        for m in (0.85, 1.0, 1.15):
            k = fc.forward(t) * m
            direct = local_vol(cs, t, k)
            interp = lvs(t, k)
            assert abs(direct - interp) < 5e-3
    # lookups are pure: they add or change no attribute of the surface
    after = vars(lvs)
    assert after.keys() == before.keys()
    for key, value in before.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(after[key], value)
        else:
            assert after[key] == value


def test_calibrated_surface_respects_vol_bounds():
    cs, fc = _skew_surface()
    lvs = calibrate_local_vol(cs, horizon=2.0, n_times=16, n_spots=41)
    assert np.all(lvs.values >= 0.01 - 1e-15)
    assert np.all(lvs.values <= 5.0 + 1e-15)
    assert np.all(np.isfinite(lvs.values))
