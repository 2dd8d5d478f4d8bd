"""Risk-neutral densities and local volatility from a smooth call surface.

The implied density is the discounted second strike derivative of the call
price and the distribution function follows from the first derivative:

    pdf(T, K) = d2C/dK2 / DF(T)
    cdf(T, K) = 1 + (dC/dK) / DF(T)

Local variance divides the calendar spread, carry-adjusted with the dividend
yield multiplying the price itself, by the butterfly:

    var(t, s) = [dC/dT + q C + (r - q) K dC/dK] / (K^2 d2C/dK2 / 2)   at K = s

The drift adjustment multiplies the price by the dividend yield alone; using
the full carry there is a classic transcription error that feeds a biased
numerator.  Floors and caps below keep the division usable in the far wings,
and every floored evaluation is counted.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import PricingError, SurfaceError
from .marketdata.surfaces import CallSurface

__all__ = [
    "implied_density",
    "cumulative",
    "InverseCdfTable",
    "inverse_cdf",
    "local_vol",
    "LocalVolSurface",
    "calibrate_local_vol",
]

#: default floors of the local variance ratio
VOL_FLOOR = 0.01
VOL_CAP = 5.0
CONVEXITY_FLOOR = 1e-12  # dimensionless butterfly factor floor


def implied_density(cs: CallSurface, expiry: float, strike):
    """Implied terminal density at the given strikes.

    Negative values are returned as computed; the surface counts them under
    ``negative_density`` so callers can flag butterfly arbitrage.
    """
    ev = cs.evaluate(expiry, strike)
    out = ev.d2_strike / ev.df
    return float(out[0]) if np.ndim(strike) == 0 else out


def cumulative(cs: CallSurface, expiry: float, strike):
    """Risk-neutral distribution function, clipped into [0, 1]."""
    ev = cs.evaluate(expiry, strike)
    raw = 1.0 + ev.d_strike / ev.df
    clipped = np.clip(raw, 0.0, 1.0)
    n_clip = int(np.count_nonzero(clipped != raw))
    if n_clip:
        cs.counters["cdf_clipped"] += n_clip
    return float(clipped[0]) if np.ndim(strike) == 0 else clipped


def _monotone_projection(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators projection onto non-decreasing sequences."""
    vals: list[float] = []
    weights: list[int] = []
    for v in y:
        vals.append(float(v))
        weights.append(1)
        while len(vals) > 1 and vals[-1] < vals[-2]:
            w = weights.pop()
            v2 = vals.pop()
            vals[-1] = (vals[-1] * weights[-1] + v2 * w) / (weights[-1] + w)
            weights[-1] += w
    return np.repeat(vals, weights)


@dataclass(eq=False)
class InverseCdfTable:
    """Monotone strike-vs-probability table for one expiry of one asset.

    Built on a fixed log-strike grid wide enough that the flat-vol lognormal
    tails carry essentially all remaining mass.  Probabilities outside the
    tabulated CDF range are clamped to the edge and counted.
    """

    expiry: float
    log_strikes: np.ndarray
    cdf: np.ndarray
    counters: Counter = field(default_factory=Counter)

    def __post_init__(self):
        if self.log_strikes.shape != self.cdf.shape or self.log_strikes.ndim != 1:
            raise SurfaceError("inverse cdf table needs matching 1-d grids")
        # strictly increasing copy for interpolation over flat PAVA segments
        eps = 1e-14 * np.arange(self.cdf.size)
        self._cdf_strict = np.maximum.accumulate(self.cdf) + eps

    def invert(self, p):
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        if np.any(~np.isfinite(p_arr)) or np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
            raise PricingError("inverse cdf requires probabilities inside (0, 1)")
        lo, hi = self._cdf_strict[0], self._cdf_strict[-1]
        clamped = (p_arr < lo) | (p_arr > hi)
        n_clamped = int(np.count_nonzero(clamped))
        if n_clamped:
            self.counters["clamped"] += n_clamped
        x = np.interp(np.clip(p_arr, lo, hi), self._cdf_strict, self.log_strikes)
        out = np.exp(x)
        return float(out[0]) if np.ndim(p) == 0 else out


def inverse_cdf(cs: CallSurface, expiry: float, n_points: int | None = None) -> InverseCdfTable:
    """Build the monotone inverse-CDF table of ``cs`` at ``expiry``."""
    smoothing = cs.surface.smoothing
    n = n_points or smoothing.cdf_grid_points
    prof_forward = cs.forward(expiry)
    w_lo = cs.total_variance(expiry, prof_forward * np.exp(cs.x_lo))
    w_hi = cs.total_variance(expiry, prof_forward * np.exp(cs.x_hi))
    tail = smoothing.tail_width
    x_min = cs.x_lo - tail * np.sqrt(w_lo) - 0.5
    x_max = cs.x_hi + tail * np.sqrt(w_hi) + 0.5
    x_grid = np.linspace(x_min, x_max, n)
    strikes = prof_forward * np.exp(x_grid)
    raw = cumulative(cs, expiry, strikes)
    mono = _monotone_projection(np.asarray(raw))
    return InverseCdfTable(expiry=float(expiry), log_strikes=np.log(strikes), cdf=mono)


# ----------------------------------------------------------------------
# local volatility


def local_vol(cs: CallSurface, t: float, spot, *, floors=None):
    """Pointwise local volatility of the asset behind ``cs`` at time ``t``.

    The ratio of call derivatives is evaluated after cancelling their
    common Gaussian prefactor: with deterministic carry the numerator
    dC/dT + q C + (r - q) K dC/dK collapses to DF·K·n(d2)·(dw/dT)/(2s)
    and the butterfly denominator carries the same prefactor times the
    convexity factor, leaving variance = (dw/dT) / convexity.  The
    cancelled form is exact for flat surfaces at any moneyness, where
    the raw ratio of near-zero Greeks loses every digit.

    ``spot`` may be an array.  Floored numerators (calendar spread below
    zero), floored denominators (butterfly factor below its floor) and
    clipped variances are counted on ``cs.counters``.
    """
    vol_floor, vol_cap, g_floor = floors or (VOL_FLOOR, VOL_CAP, CONVEXITY_FLOOR)
    view = cs.variance_view(t, spot)
    numerator = view.w_t
    denominator = view.convexity
    n_num = int(np.count_nonzero(numerator < 0.0))
    n_den = int(np.count_nonzero(denominator < g_floor))
    if n_num:
        cs.counters["numerator_floored"] += n_num
    if n_den:
        cs.counters["denominator_floored"] += n_den
    variance = np.maximum(numerator, 0.0) / np.maximum(denominator, g_floor)
    clipped = np.clip(variance, vol_floor**2, vol_cap**2)
    n_clip = int(np.count_nonzero(clipped != variance))
    if n_clip:
        cs.counters["variance_clipped"] += n_clip
    out = np.sqrt(clipped)
    return float(out[0]) if np.ndim(spot) == 0 else out


@dataclass(eq=False)
class LocalVolSurface:
    """Tabulated local volatility on a (time, log spot) grid.

    The grid is rectangular in (time, log spot); evaluation is bilinear and
    queries outside the grid are clamped to the edge, which matches the flat
    extrapolation of the implied surface behind it.
    """

    asset_id: str
    times: np.ndarray
    log_spots: np.ndarray
    values: np.ndarray  # (n_times, n_spots)
    counters: Counter = field(default_factory=Counter)

    def __post_init__(self):
        if self.values.shape != (self.times.size, self.log_spots.size):
            raise SurfaceError("local vol grid shape mismatch")
        if np.any(np.diff(self.times) <= 0) or np.any(np.diff(self.log_spots) <= 0):
            raise SurfaceError("local vol grid axes must be strictly increasing")

    def time_slice(self, t: float) -> np.ndarray:
        """Vol row at time ``t``; linear blend of the bracketing grid rows."""
        t = float(t)
        times = self.times
        if t <= times[0]:
            return self.values[0]
        if t >= times[-1]:
            return self.values[-1]
        j = int(np.searchsorted(times, t, side="right") - 1)
        lam = (t - times[j]) / (times[j + 1] - times[j])
        return (1.0 - lam) * self.values[j] + lam * self.values[j + 1]

    def __call__(self, t: float, spot):
        row = self.time_slice(t)
        s = np.atleast_1d(np.asarray(spot, dtype=float))
        out = np.interp(np.log(s), self.log_spots, row)
        return float(out[0]) if np.ndim(spot) == 0 else out


def calibrate_local_vol(
    cs: CallSurface,
    horizon: float,
    *,
    n_times: int = 64,
    n_spots: int = 161,
    spot_width: float | None = None,
    floors=None,
) -> LocalVolSurface:
    """Tabulate :func:`local_vol` of ``cs`` on a (time, log spot) grid.

    ``spot_width`` is the half-width of the log-spot grid; the default covers
    six total standard deviations at the horizon plus the quoted span.
    """
    if horizon <= 0.0:
        raise SurfaceError("calibration horizon must be positive")
    f0 = cs.forward_curve.forward(0.0)
    if spot_width is None:
        w_ref = cs.total_variance(min(horizon, cs.expiry_max), f0)
        spot_width = 6.0 * np.sqrt(max(w_ref, 1e-4) * max(1.0, horizon / min(horizon, cs.expiry_max)))
        spot_width = float(max(spot_width, cs.x_hi - cs.x_lo + 0.5))
    times = np.linspace(1e-3, horizon, n_times)
    log_spots = np.log(f0) + np.linspace(-spot_width, spot_width, n_spots)
    grid = np.empty((n_times, n_spots))
    spots = np.exp(log_spots)
    before = dict(cs.counters)
    for i, t in enumerate(times):
        grid[i] = local_vol(cs, float(t), spots, floors=floors)
    lv = LocalVolSurface(
        asset_id=cs.asset_id,
        times=times,
        log_spots=log_spots,
        values=grid,
    )
    for key in ("numerator_floored", "denominator_floored", "variance_clipped"):
        lv.counters[key] = cs.counters.get(key, 0) - before.get(key, 0)
    lv.counters["grid_points"] = grid.size
    return lv
