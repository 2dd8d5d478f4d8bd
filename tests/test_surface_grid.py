"""The single spline evaluator against per-expiry scipy spline objects, bit for bit.

The oracle rebuilds each maturity slice the way a one-expiry smoother does:
a ``CubicSpline`` in moneyness over the surface's resampled grid, read at
the query expiry from its ``PchipInterpolator`` across maturity and
extended linearly in total variance past the last quote.  Every surface
query and every calibrated local vol must equal it exactly, and the
surface counters must add up to the per-expiry ones.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.special import ndtr

from localcorr.dupire import (
    CONVEXITY_FLOOR,
    FIRST_GRID_TIME,
    VOL_CAP,
    VOL_FLOOR,
    calibrate_local_vol,
)
from localcorr.marketdata.black import norm_pdf
from localcorr.marketdata.curves import ForwardCurve, RateCurve
from localcorr.marketdata.surfaces import CallSurface, VolSurface


def _random_surface(seed: int, n_mats: int, n_strikes: int) -> CallSurface:
    """Smiled surface on random maturities, strikes and term-structured curves."""
    rng = np.random.default_rng(seed)
    mats = np.cumsum(rng.uniform(0.1, 0.8, n_mats))
    rate = RateCurve(np.array([0.0, 1.0, 3.0]), rng.uniform(-0.01, 0.05, 3))
    div = RateCurve(np.array([0.5, 2.0]), rng.uniform(0.0, 0.04, 2))
    fc = ForwardCurve(float(rng.uniform(20.0, 200.0)), rate, div)
    strikes, vols = [], []
    for t in mats:
        m = np.sort(rng.uniform(0.6, 1.5, n_strikes)) if n_strikes > 1 else np.array([1.0])
        m = np.unique(m)
        x = np.log(m)
        level = rng.uniform(0.1, 0.5)
        vols.append(level + rng.uniform(0.0, 0.1) * np.tanh(-x / 0.4)
                    + rng.uniform(0.0, 0.2) * x * x + rng.uniform(0.0, 0.01, m.size))
        strikes.append(m * fc.forward(t))
    return CallSurface(VolSurface(mats, tuple(strikes), tuple(vols)), fc, "RND")


def _oracle_terms(cs: CallSurface, expiry: float, k: np.ndarray):
    """Per-expiry spline objects read at ``k``: x, w, w_x, w_xx, w_t, outside, forward."""
    if expiry <= cs.expiry_max:
        w_vals = cs._pchip(expiry)
        wt_vals = cs._pchip_d(expiry)
    else:
        wt_vals = cs._pchip_d(cs.expiry_max)
        w_vals = cs._pchip(cs.expiry_max) + wt_vals * (expiry - cs.expiry_max)
    w_spline = CubicSpline(cs.x_grid, np.maximum(w_vals, 1e-12), bc_type="natural")
    wt_spline = CubicSpline(cs.x_grid, wt_vals, bc_type="natural")
    forward = float(cs.forward_curve.forward(expiry))
    x = np.log(k / forward)
    inside = (x >= cs.x_lo) & (x <= cs.x_hi)
    xc = np.clip(x, cs.x_lo, cs.x_hi)
    w = np.maximum(w_spline(xc), 1e-14)
    wx = np.where(inside, w_spline(xc, 1), 0.0)
    wxx = np.where(inside, w_spline(xc, 2), 0.0)
    return x, w, wx, wxx, wt_spline(xc), ~inside, forward


def _oracle_convexity(x, w, wx, wxx):
    return (
        np.square(1.0 - x * wx / (2.0 * w))
        - 0.25 * np.square(wx) * (1.0 / w + 0.25)
        + 0.5 * wxx
    )


def _oracle_call(cs: CallSurface, expiry: float, k: np.ndarray) -> dict:
    """Price and derivatives from the oracle terms, in the closed forms' order."""
    x, w, wx, wxx, wt, outside, forward = _oracle_terms(cs, expiry, k)
    fc = cs.forward_curve
    df = float(fc.discount(expiry))
    rate = float(fc.rate_curve.rate(expiry))
    carry = float(fc.rate_curve.rate(expiry) - fc.drift(expiry))
    s = np.sqrt(w)
    d1 = -x / s + 0.5 * s
    d2 = d1 - s
    n_d1, n_d2, pdf_d2 = ndtr(d1), ndtr(d2), norm_pdf(d2)
    price = df * (forward * n_d1 - k * n_d2)
    mu = rate - carry
    return {
        "log_moneyness": x, "w": w, "w_x": wx, "w_xx": wxx, "w_t": wt,
        "convexity": _oracle_convexity(x, w, wx, wxx), "extrapolated": outside,
        "forward": forward, "df": df,
        "price": price,
        "d_strike": df * (-n_d2 + pdf_d2 * wx / (2.0 * s)),
        "d2_strike": df * pdf_d2 * _oracle_convexity(x, w, wx, wxx) / (k * s),
        "d_expiry": -rate * price + df * (
            mu * forward * n_d1 + k * pdf_d2 / (2.0 * s) * (wt - mu * wx)),
        "implied_vol": np.sqrt(w / expiry),
    }


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


surface_shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    n_mats=st.integers(1, 5),
    n_strikes=st.integers(1, 9),
)


@settings(max_examples=60, deadline=None)
@given(**surface_shapes, horizon_frac=st.floats(0.002, 1.6),
       n_times=st.sampled_from([1, 2, 3, 64]), n_spots=st.sampled_from([1, 2, 3, 64]))
def test_calibration_is_the_per_time_oracle_bit_for_bit(seed, n_mats, n_strikes, horizon_frac,
                                                        n_times, n_spots):
    cs = _random_surface(seed, n_mats, n_strikes)
    horizon = max(horizon_frac * cs.expiry_max, 2.0 * FIRST_GRID_TIME)
    lv = calibrate_local_vol(cs, horizon, n_times=n_times, n_spots=n_spots)

    oracle_cs = _random_surface(seed, n_mats, n_strikes)  # fresh counters
    counts = Counter()
    f0 = oracle_cs.forward_curve.forward(0.0)
    counts["strike_extrapolated"] += int(
        _oracle_terms(oracle_cs, min(horizon, oracle_cs.expiry_max), np.array([f0]))[5].sum())
    spots = np.exp(lv.log_spots)
    for i, t in enumerate(lv.times):
        x, w, wx, wxx, wt, outside, _ = _oracle_terms(oracle_cs, float(t), spots)
        g = _oracle_convexity(x, w, wx, wxx)
        variance = np.maximum(wt, 0.0) / np.maximum(g, CONVEXITY_FLOOR)
        clipped = np.clip(variance, VOL_FLOOR**2, VOL_CAP**2)
        assert _same(lv.values[i], np.sqrt(clipped)), i
        counts["strike_extrapolated"] += int(outside.sum())
        counts["expiry_extrapolated"] += int(t > oracle_cs.expiry_max)
        counts["numerator_floored"] += int(np.count_nonzero(wt < 0.0))
        counts["denominator_floored"] += int(np.count_nonzero(g < CONVEXITY_FLOOR))
        counts["variance_clipped"] += int(np.count_nonzero(clipped != variance))
    expected = {key: n for key, n in counts.items() if n}
    assert dict(cs.counters) == expected
    floors = ("numerator_floored", "denominator_floored", "variance_clipped")
    assert dict(lv.counters) == {**{key: counts[key] for key in floors},
                                 "grid_points": n_times * n_spots}


@settings(max_examples=60, deadline=None)
@given(**surface_shapes, query_seed=st.integers(0, 2**32 - 1), n_queries=st.integers(1, 6))
def test_every_query_is_the_per_expiry_oracle_bit_for_bit(seed, n_mats, n_strikes, query_seed,
                                                          n_queries):
    cs = _random_surface(seed, n_mats, n_strikes)
    rng = np.random.default_rng(query_seed)
    # expiries on both sides of the last quote, strikes past the quoted span
    expiries = rng.uniform(0.01, 1.4, n_queries) * cs.expiry_max
    for expiry in np.append(expiries, cs.expiry_max):
        expiry = float(expiry)
        k = cs.forward_curve.forward(expiry) * np.exp(rng.uniform(-2.5, 2.5, 7))
        want = _oracle_call(cs, expiry, k)
        w_t, convexity = cs.variance_view([expiry], k)
        assert _same(w_t[0], want["w_t"]) and _same(convexity[0], want["convexity"])
        _, _, *terms = cs._query(expiry, k)
        for field, got in zip(("log_moneyness", "w", "w_x", "w_xx", "w_t", "extrapolated"),
                              terms):
            assert _same(got, want[field]), field
        ev = cs.evaluate(expiry, k)
        for field in ("price", "d_expiry", "d_strike", "d2_strike", "implied_vol",
                      "extrapolated", "forward", "df"):
            assert _same(getattr(ev, field), want[field]), field
        assert _same(ev.total_variance, want["w"])
        assert _same(cs.implied_vol(expiry, k), want["implied_vol"])
        assert _same(cs.total_variance(expiry, k), want["w"])
        assert _same(cs.price(expiry, k), want["price"])
        assert cs.price(expiry, float(k[0])) == float(want["price"][0])
        assert cs.forward(expiry) == want["forward"]
