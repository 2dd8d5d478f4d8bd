"""Tests for the smoothed call surface and its derivative outputs."""

import numpy as np
import pytest

from localcorr.errors import SurfaceError
from localcorr.marketdata.black import black_call, norm_pdf
from localcorr.marketdata.curves import ForwardCurve, RateCurve
from localcorr.marketdata.surfaces import CallSurface, VolSurface

from helpers import flat_quote

RATE = RateCurve.flat(0.02)


def _surface(vol_rows=None, spot=100.0, dividend=0.01, maturities=(0.5, 1.0, 1.5, 2.0)):
    """Surface on a moneyness grid; vol_rows defaults to a smiling shape."""
    div = RateCurve.flat(dividend)
    fc = ForwardCurve(spot, RATE, div)
    mats = np.asarray(maturities, dtype=float)
    m = np.arange(0.6, 1.45, 0.05)
    x = np.log(m)
    if vol_rows is None:
        vol_rows = tuple(0.2 + 0.04 * np.tanh(-x / 0.5) + 0.05 * x * x for _ in mats)
    vs = VolSurface(
        maturities=mats,
        strikes=tuple(m * fc.forward(t) for t in mats),
        vols=tuple(np.asarray(v) for v in vol_rows),
    )
    return CallSurface(vs, fc, "TEST"), fc


def test_flat_surface_prices_match_black():
    cs, fc = _surface(vol_rows=[np.full(17, 0.25)] * 4)
    for t in (0.5, 0.8, 1.0, 1.7, 2.0):
        f = fc.forward(t)
        df = RATE.discount(t)
        for k in (0.7 * f, f, 1.3 * f):
            assert abs(cs.price(t, k) - black_call(f, k, t, 0.25, df)) < 1e-10


def test_implied_vol_round_trip_at_quotes():
    """The smoother interpolates the quoted vols at the quoted nodes."""
    cs, fc = _surface()
    m = np.arange(0.6, 1.45, 0.05)
    x = np.log(m)
    quoted = 0.2 + 0.04 * np.tanh(-x / 0.5) + 0.05 * x * x
    for t in (0.5, 1.0, 2.0):
        strikes = m * fc.forward(t)
        fitted = cs.implied_vol(t, strikes)
        assert np.max(np.abs(fitted - quoted)) < 1e-6


def test_strike_derivatives_match_finite_differences():
    cs, fc = _surface()
    t = 1.25
    f = cs.forward(t)
    h = f * 1e-5
    for k in (0.8 * f, f, 1.2 * f):
        ev = cs.evaluate(t, k)
        up, dn = cs.price(t, k + h), cs.price(t, k - h)
        fd1 = (up - dn) / (2 * h)
        fd2 = (up - 2 * cs.price(t, k) + dn) / (h * h)
        assert abs(ev.d_strike[0] - fd1) < 1e-6
        assert abs(ev.d2_strike[0] - fd2) < 2e-5 * max(abs(fd2), 1e-4)


def test_expiry_derivative_matches_finite_difference():
    cs, fc = _surface()
    h = 1e-5
    for t in (0.8, 1.25, 1.75):
        f = cs.forward(t)
        for k in (0.9 * f, 1.05 * f):
            ev = cs.evaluate(t, k)
            fd = (cs.price(t + h, k) - cs.price(t - h, k)) / (2 * h)
            assert abs(ev.d_expiry[0] - fd) < 2e-5 * max(abs(fd), 1.0)


def test_variance_view_consistent_with_evaluate():
    """w derivatives feed both views; the density prefactor identity holds."""
    cs, fc = _surface()
    t = 1.1
    f = cs.forward(t)
    strikes = np.array([0.8 * f, 0.95 * f, f, 1.15 * f])
    _, _, x, w, *_ = cs._query(t, strikes)
    _, convexity = cs.variance_view([t], strikes)
    ev = cs.evaluate(t, strikes)
    assert np.allclose(w, ev.total_variance, rtol=0, atol=1e-14)
    # d2C/dK2 = df n(d2) g / (K sqrt(w)) with the same convexity factor g
    s = np.sqrt(w)
    d2 = -x / s - 0.5 * s
    expected = ev.df * norm_pdf(d2) * convexity[0] / (strikes * s)
    assert np.allclose(ev.d2_strike, expected, rtol=1e-9, atol=0)


def test_variance_view_x_derivatives_match_finite_differences():
    cs, fc = _surface()
    t = 0.9
    f = cs.forward(t)
    k = 0.92 * f
    x = np.log(k / f)
    h = 1e-5
    _, _, _, _, w_x, w_xx, *_ = cs._query(t, k)
    w_up = cs.total_variance(t, f * np.exp(x + h))
    w_dn = cs.total_variance(t, f * np.exp(x - h))
    w_0 = cs.total_variance(t, k)
    assert abs(w_x[0] - (w_up - w_dn) / (2 * h)) < 1e-8
    assert abs(w_xx[0] - (w_up - 2 * w_0 + w_dn) / (h * h)) < 1e-5


def test_total_variance_increasing_in_expiry():
    cs, fc = _surface()
    ts = np.linspace(0.1, 2.0, 30)
    w = [cs.total_variance(t, cs.forward(t)) for t in ts]
    assert np.all(np.diff(w) > 0)


def test_extrapolation_flags_and_counters():
    cs, fc = _surface()
    before = dict(cs.counters)
    t = 1.0
    f = cs.forward(t)
    ev = cs.evaluate(t, np.array([0.2 * f, f, 3.0 * f]))
    assert ev.extrapolated.tolist() == [True, False, True]
    assert cs.counters["strike_extrapolated"] > before.get("strike_extrapolated", 0)
    # beyond the last quoted expiry the surface extends linearly in variance
    n_before = cs.counters["expiry_extrapolated"]
    cs.evaluate(3.5, f)
    assert cs.counters["expiry_extrapolated"] > n_before


def test_flat_tails_beyond_quoted_span():
    """Outside the quoted span the smile is flat, so w_x vanishes there."""
    cs, fc = _surface()
    t = 1.0
    f = cs.forward(t)
    _, _, _, _, w_x, w_xx, *_ = cs._query(t, np.array([0.1 * f, 5.0 * f]))
    assert np.allclose(w_x, 0.0, atol=1e-14)
    assert np.allclose(w_xx, 0.0, atol=1e-14)


def test_surface_rejects_bad_quotes():
    fc = ForwardCurve(100.0, RATE, RateCurve.flat(0.0))
    with pytest.raises(SurfaceError):
        VolSurface(
            maturities=np.array([1.0, 0.5]),
            strikes=(np.array([90.0, 100.0]), np.array([90.0, 100.0])),
            vols=(np.array([0.2, 0.2]), np.array([0.2, 0.2])),
        )
    with pytest.raises(SurfaceError):
        VolSurface(
            maturities=np.array([1.0]),
            strikes=(np.array([90.0, 100.0]),),
            vols=(np.array([0.2, -0.1]),),
        )


def test_every_query_rejects_bad_strikes():
    """Price, variance, vol and derivative queries share one strike check."""
    cs, fc = _surface()
    f = fc.forward(1.0)
    queries = (cs.evaluate, lambda t, k: cs.variance_view([t], k), cs.price, cs.implied_vol,
               cs.total_variance)
    for query in queries:
        for bad in (-5.0, 0.0, np.nan, np.inf, np.array([f, -f]), np.array([f, np.nan])):
            with pytest.raises(SurfaceError, match="strikes"):
                query(1.0, bad)
    assert not cs.counters
    assert cs.implied_vol(1.0, f) == cs.evaluate(1.0, f).implied_vol[0]
    assert cs.total_variance(1.0, f) == cs._query(1.0, f)[3][0]


def test_quote_helper_round_trip():
    quote = flat_quote("ZZZ", 50.0, 0.3, RATE)
    fc = ForwardCurve(50.0, RATE, quote.dividend_curve)
    cs = CallSurface(quote.vol_surface, fc, "ZZZ")
    assert abs(cs.implied_vol(1.0, fc.forward(1.0)) - 0.3) < 1e-12
