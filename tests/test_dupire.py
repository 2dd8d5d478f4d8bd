"""Tests for local vol extraction, implied densities, and inverse CDF tables."""

import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import lognorm

from localcorr import dupire
from localcorr.dupire import (
    LocalVolGather,
    LocalVolSurface,
    _blend_rows,
    calibrate_local_vol,
    cumulative,
    inverse_cdf,
    local_vol,
)
from localcorr.errors import PricingError, SurfaceError
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


def test_local_vol_floors_and_counters(monkeypatch):
    cs, fc = _flat_surface(vol=0.2)
    before = cs.counters["variance_clipped"]
    monkeypatch.setattr(dupire, "VOL_FLOOR", 0.5)
    lv = local_vol(cs, 1.0, fc.forward(1.0))
    assert lv == 0.5
    assert cs.counters["variance_clipped"] == before + 1


# ---------------------------------------------------------------------------
# densities and distribution functions


def _density(cs, expiry, strikes):
    """The implied density, the surface's discounted second strike derivative."""
    ev = cs.evaluate(expiry, strikes)
    return ev.d2_strike / ev.df


def test_density_matches_lognormal():
    cs, fc = _flat_surface(vol=0.25, dividend=0.0)
    t = 1.0
    f = fc.forward(t)
    s = 0.25 * np.sqrt(t)
    strikes = f * np.linspace(0.6, 1.5, 19)
    dens = _density(cs, t, strikes)
    ref = lognorm.pdf(strikes, s, scale=f * np.exp(-0.5 * s * s))
    assert np.max(np.abs(dens - ref) / ref) < 1e-9


def test_density_integrates_to_one():
    cs, fc = _flat_surface(vol=0.2)
    t = 1.5
    f = fc.forward(t)
    strikes = np.linspace(0.05 * f, 6.0 * f, 4000)
    dens = _density(cs, t, strikes)
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


def _pooled_loop(y):
    """Pool-adjacent-violators pushed point by point, pooling strict drops only."""
    vals, weights = [], []
    for v in y:
        vals.append(float(v))
        weights.append(1)
        while len(vals) > 1 and vals[-1] < vals[-2]:
            w = weights.pop()
            v2 = vals.pop()
            vals[-1] = (vals[-1] * weights[-1] + v2 * w) / (weights[-1] + w)
            weights[-1] += w
    return np.repeat(vals, weights)


def test_inverse_cdf_pools_the_drops_of_the_raw_cdf(monkeypatch):
    """The table's CDF is the pooled loop's projection of the raw CDF, up to rounding.

    scipy also pools runs of equal values, whose means may move by an ulp,
    so only points strictly between their neighbours in the projection must
    keep their raw bits.
    """
    cs, _ = _skew_surface()
    raws = []

    def recorded(*args):
        raws.append(cumulative(*args))
        return raws[-1]

    monkeypatch.setattr(dupire, "cumulative", recorded)
    for expiry in (0.5, 1.0, 1.7, 2.5):
        got = inverse_cdf(cs, expiry).cdf
        raw = raws[-1]
        assert np.any(np.diff(raw) < 0.0)
        want = _pooled_loop(raw)
        assert np.all(np.diff(got) >= 0.0)
        assert np.max(np.abs(got - want)) <= 1e-15
        rises = np.diff(want) > 0.0
        alone = np.append(True, rises) & np.append(rises, True)
        assert not np.all(alone)
        assert np.array_equal(got[alone].view(np.int64), raw[alone].view(np.int64))


# ---------------------------------------------------------------------------
# tabulated surface


def test_calibrated_surface_interpolates_pointwise_values():
    cs, fc = _skew_surface()
    lvs = calibrate_local_vol(cs, horizon=2.0, n_times=32, n_spots=81)
    assert isinstance(lvs, LocalVolSurface)
    before = copy.deepcopy(vars(lvs))
    for i, t in enumerate(lvs.times):
        np.testing.assert_allclose(_blend_rows(lvs.times, lvs.values, t), lvs.values[i],
                                   rtol=0, atol=1e-14)
    gather = LocalVolGather([lvs])
    # at the grid nodes the table returns the tabulated values exactly
    mid = lvs.log_spots.size // 2
    for i in (0, 7, 20):
        node = gather(float(lvs.times[i]), np.log([[np.exp(lvs.log_spots[mid])]]))[0, 0]
        assert abs(node - lvs.values[i, mid]) < 1e-12
    # interior bilinear queries stay close to the direct pointwise extraction
    for t in (0.4, 1.1, 1.9):
        for m in (0.85, 1.0, 1.15):
            k = fc.forward(t) * m
            direct = local_vol(cs, t, k)
            interp = gather(t, np.log([[k]]))[0, 0]
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


def test_calibration_rejects_empty_grids():
    cs, _ = _flat_surface()
    for sizes in [{"n_times": 0}, {"n_times": -3}, {"n_spots": 0}, {"n_spots": -3}]:
        with pytest.raises(SurfaceError, match="grid sizes must be positive"):
            calibrate_local_vol(cs, horizon=1.0, **sizes)


# ---------------------------------------------------------------------------
# one-pass gather over several surfaces


def _uniform_lv(asset_id, f0, half_width, times, values):
    log_spots = np.log(f0) + np.linspace(-half_width, half_width, values.shape[1])
    return LocalVolSurface(asset_id, times, log_spots, values)


def _queries(lv):
    """Every node, both float neighbours of each, and points beyond both edges."""
    xp = lv.log_spots
    lo, hi = xp[0], xp[-1]
    extra = [lo - 1.0, hi + 1.0, lo - 1e-9, hi + 1e-9, -1e300, 1e300, -np.inf, np.inf, np.nan,
             0.5 * (lo + hi), 0.75 * lo + 0.25 * hi]
    return np.concatenate([xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf), extra])


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from((1, 2, 3, 161)),
    grids=st.lists(
        st.tuples(st.floats(1.0, 1000.0), st.floats(1e-3, 8.0)), min_size=1, max_size=4
    ),
    n_times=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_gather_is_np_interp_bit_for_bit(m, grids, n_times, seed):
    """Column c of the gather equals np.interp on surface c, to the last bit, warning-free."""
    gen = np.random.default_rng(seed)
    times = np.linspace(1e-3, 2.0, n_times)
    surfaces = [
        _uniform_lv(f"S{c}", f0, hw, times, gen.uniform(0.01, 5.0, (n_times, m)))
        for c, (f0, hw) in enumerate(grids)
    ]
    gather = LocalVolGather(surfaces)
    x = np.vstack([
        np.column_stack([_queries(lv) for lv in surfaces]),
        np.log([f0 for f0, _ in grids]) + gen.uniform(-10.0, 10.0, (64, len(grids))),
    ])
    nodes = slice(0, m)
    # before the first grid time, on every grid time, between them and past the last
    for t in [0.0, *times, *gen.uniform(0.0, 2.0, 3), 2.5]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gather(t, x)
            lead = gather(t, np.asfortranarray(x[:, :1]))
        for c, lv in enumerate(surfaces):
            row = _blend_rows(lv.times, lv.values, t)
            want = np.interp(x[:, c], lv.log_spots, row)
            assert np.array_equal(got[:, c].view(np.int64), want.view(np.int64))
            # the rows the gather blends are _blend_rows's rows, bit for bit
            assert np.array_equal(got[nodes, c].view(np.int64), row.view(np.int64))
        assert np.array_equal(lead.view(np.int64), got[:, :1].view(np.int64))
        nan = np.isnan(x)
        assert np.all(np.isnan(got[nan])) if m > 1 else np.all(np.isfinite(got))


def test_gather_rejects_grids_it_cannot_bracket():
    times = np.linspace(1e-3, 1.0, 4)
    values = np.full((4, 21), 0.2)
    good = _uniform_lv("A", 100.0, 2.0, times, values)
    LocalVolGather([good, good])
    # one node moved by 0.6 of a cell: the uniform bracket estimate could miss by two cells
    bent = good.log_spots.copy()
    bent[10] += 0.6 * (bent[1] - bent[0])
    geometric = np.log(100.0) + np.geomspace(1.0, 5.0, 21) - 3.0
    for log_spots in (bent, geometric):
        with pytest.raises(SurfaceError, match="uniform"):
            LocalVolGather([good, LocalVolSurface("B", times, log_spots, values)])
    # surfaces must share the time grid and the spot count
    other_times = _uniform_lv("C", 90.0, 2.0, times * 2.0, values)
    fewer_spots = _uniform_lv("D", 90.0, 2.0, times, values[:, :20])
    for bad in (other_times, fewer_spots):
        with pytest.raises(SurfaceError, match="share one time grid"):
            LocalVolGather([good, bad])
