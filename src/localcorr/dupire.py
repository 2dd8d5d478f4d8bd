"""Risk-neutral densities and local volatility from a smooth call surface.

The implied density is the discounted second strike derivative of the call
price, ``CallSurface.evaluate(...).d2_strike / df``, and the distribution
function follows from the first derivative:

    pdf(T, K) = d2C/dK2 / DF(T)
    cdf(T, K) = 1 + (dC/dK) / DF(T)

Local variance divides the calendar spread, carry-adjusted with the dividend
yield multiplying the price itself, by the butterfly:

    var(t, s) = [dC/dT + q C + (r - q) K dC/dK] / (K^2 d2C/dK2 / 2)   at K = s

The drift adjustment multiplies the price by the dividend yield alone; using
the full carry there is a classic transcription error that feeds a biased
numerator.  Floors and caps below keep the division usable in the far wings,
and every floored evaluation is counted.

Pointwise queries (:func:`local_vol`) and the tabulated grid
(:func:`calibrate_local_vol`) read the variance terms through one surface
query, ``CallSurface.variance_view``, and share one floored ratio: the
pointwise query reads a one-row grid, so a grid row equals the pointwise vols
at its time bit for bit.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import isotonic_regression

from .errors import PricingError, SurfaceError
from .marketdata.surfaces import CallSurface

__all__ = [
    "cumulative",
    "InverseCdfTable",
    "inverse_cdf",
    "local_vol",
    "LocalVolSurface",
    "LocalVolGather",
    "calibrate_local_vol",
]

#: floors and cap of the local variance ratio
VOL_FLOOR = 0.01
VOL_CAP = 5.0
CONVEXITY_FLOOR = 1e-12  # dimensionless butterfly factor floor
#: first time of every calibrated local vol grid; the horizon must lie past it
FIRST_GRID_TIME = 1e-3


def cumulative(cs: CallSurface, expiry: float, strike):
    """Risk-neutral distribution function, clipped into [0, 1]."""
    ev = cs.evaluate(expiry, strike)
    raw = 1.0 + ev.d_strike / ev.df
    clipped = np.clip(raw, 0.0, 1.0)
    n_clip = int(np.count_nonzero(clipped != raw))
    if n_clip:
        cs.counters["cdf_clipped"] += n_clip
    return float(clipped[0]) if np.ndim(strike) == 0 else clipped


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
        """Strikes at probabilities ``p`` in (0, 1); a scalar gives a float.

        Each value depends on its own probability alone.  Ascending
        queries are read fastest: ``np.interp`` then walks the table
        instead of searching it.
        """
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


#: log-strike points of an inverse-CDF table
CDF_GRID_POINTS = 2001
#: table reach beyond the quoted moneyness span, in total standard deviations
TAIL_WIDTH = 10.0


def inverse_cdf(cs: CallSurface, expiry: float) -> InverseCdfTable:
    """Build the monotone inverse-CDF table of ``cs`` at ``expiry``."""
    prof_forward = cs.forward(expiry)
    w_lo = cs.total_variance(expiry, prof_forward * np.exp(cs.x_lo))
    w_hi = cs.total_variance(expiry, prof_forward * np.exp(cs.x_hi))
    x_min = cs.x_lo - TAIL_WIDTH * np.sqrt(w_lo) - 0.5
    x_max = cs.x_hi + TAIL_WIDTH * np.sqrt(w_hi) + 0.5
    x_grid = np.linspace(x_min, x_max, CDF_GRID_POINTS)
    strikes = prof_forward * np.exp(x_grid)
    mono = isotonic_regression(cumulative(cs, expiry, strikes)).x
    return InverseCdfTable(expiry=float(expiry), log_strikes=np.log(strikes), cdf=mono)


# ----------------------------------------------------------------------
# local volatility


def local_vol(cs: CallSurface, t: float, spot):
    """Pointwise local volatility of the asset behind ``cs`` at time ``t``.

    The ratio of call derivatives is evaluated after cancelling their
    common Gaussian prefactor: with deterministic carry the numerator
    dC/dT + q C + (r - q) K dC/dK collapses to DF·K·n(d2)·(dw/dT)/(2s)
    and the butterfly denominator carries the same prefactor times the
    convexity factor, leaving variance = (dw/dT) / convexity.  The
    cancelled form is exact for flat surfaces at any moneyness, where
    the raw ratio of near-zero Greeks loses every digit.  Both terms are
    the one row at ``t`` of ``cs.variance_view``, which is not cached.

    ``spot`` may be an array.  Floored numerators (calendar spread below
    zero), floored denominators (butterfly factor below its floor) and
    clipped variances are counted on ``cs.counters``, and so is a time
    past the last quote, on every call.
    """
    w_t, convexity = cs.variance_view([t], spot)
    out = _floored_vol(cs.counters, w_t[0], convexity[0])
    return float(out[0]) if np.ndim(spot) == 0 else out


def _floored_vol(counters: Counter, numerator, denominator) -> np.ndarray:
    """Local vol from the cancelled ratio (dw/dT) / convexity, floored and clipped.

    Any array shape works; the floor and clip counts go to ``counters``.
    """
    n_num = int(np.count_nonzero(numerator < 0.0))
    n_den = int(np.count_nonzero(denominator < CONVEXITY_FLOOR))
    if n_num:
        counters["numerator_floored"] += n_num
    if n_den:
        counters["denominator_floored"] += n_den
    variance = np.maximum(numerator, 0.0) / np.maximum(denominator, CONVEXITY_FLOOR)
    clipped = np.clip(variance, VOL_FLOOR**2, VOL_CAP**2)
    n_clip = int(np.count_nonzero(clipped != variance))
    if n_clip:
        counters["variance_clipped"] += n_clip
    return np.sqrt(clipped)


def _blend_rows(times: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    """``values[k]`` belongs to ``times[k]``; linear in time, flat past either end."""
    t = float(t)
    if t <= times[0]:
        return values[0]
    if t >= times[-1]:
        return values[-1]
    j = int(np.searchsorted(times, t, side="right") - 1)
    lam = (t - times[j]) / (times[j + 1] - times[j])
    return (1.0 - lam) * values[j] + lam * values[j + 1]


@dataclass(eq=False)
class LocalVolSurface:
    """Tabulated local volatility on a (time, log spot) grid.

    The grid is rectangular in (time, log spot).  :class:`LocalVolGather`
    reads it bilinearly and clamps queries outside the grid to the edge,
    which matches the flat extrapolation of the implied surface behind it.
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


class LocalVolGather:
    """Local vols of several surfaces read in one pass over uniform log-spot grids.

    Column c of a (paths, columns) query of log spots reads surface c, so a
    query covers any leading run of the surfaces.  Each value equals
    ``np.interp(x[:, c], lv.log_spots, _blend_rows(lv.times, lv.values, t))``
    bit for bit.
    The query is clipped into the grid; a cell index estimated from the
    uniform spacing is corrected to numpy's bracket
    log_spots[j] <= x < log_spots[j + 1]; and the value is numpy's
    (x - xp[j]) * slope[j] + fp[j] with the same precomputed slopes.  Each
    grid gets one more node at +inf that repeats the last vol with slope 0,
    so the last node needs no special case.  The surfaces are flattened
    into one table, surface c starting at offset c (m + 1), and their rows
    are blended in time per call by ``_blend_rows``.
    """

    def __init__(self, surfaces: Sequence[LocalVolSurface]):
        times = surfaces[0].times
        m = surfaces[0].log_spots.size
        for lv in surfaces:
            if not np.array_equal(lv.times, times) or lv.log_spots.size != m:
                raise SurfaceError("gathered local vol surfaces must share one time grid "
                                   "and one spot grid size")
        n = len(surfaces)
        xp = np.array([lv.log_spots for lv in surfaces])
        lo, hi = xp[:, :1], xp[:, -1:]
        inv_h = (m - 1) / (hi - lo) if m > 1 else np.zeros_like(lo)
        offsets = np.arange(n)[:, None] * (m + 1.0)
        shift = offsets - lo * inv_h
        # Every node's estimate within half a cell of its index keeps the
        # estimate of a clipped query within one cell of its bracket and inside
        # its own surface's table; two corrections then give the bracket.
        if np.any(np.abs(xp * inv_h + shift - (offsets + np.arange(m))) >= 0.5):
            raise SurfaceError("gathered local vol log-spot grids must be uniform")
        self._times = times
        self._m = m
        self._lo, self._hi, self._inv_h = lo, hi, inv_h
        self._offsets, self._shift = offsets, shift
        self._xp = np.concatenate([xp, np.full((n, 1), np.inf)], axis=1).ravel()
        self._xp_next = np.append(self._xp[1:], np.inf)
        # +inf spacings past the last node give the padded slopes 0
        self._dx = np.concatenate([np.diff(xp, axis=1), np.full((n, 2), np.inf)], axis=1)
        self._values = np.empty((times.size, n, m + 1))
        for c, lv in enumerate(surfaces):
            self._values[:, c, :m] = lv.values
        self._values[:, :, m] = self._values[:, :, m - 1]

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        """Local vols at time ``t`` of log spots ``x`` (paths, columns).

        Any memory layout works; a column-major ``x`` is read fastest.  The
        result is column-major too: the transpose of one row per column.
        """
        p, c = x.shape
        fp = _blend_rows(self._times, self._values[:, :c], t)
        if self._m == 1:  # np.interp's one-node rule: every query, NaN included, reads fp0
            return np.repeat(fp[:, :1], p, axis=1).T
        slope = np.diff(fp, axis=1, append=fp[:, -1:]) / self._dx[:c]
        # one row per surface, so the per-surface constants broadcast along rows
        xc = np.clip(x.T, self._lo[:c], self._hi[:c], out=np.empty((c, p)))
        f = np.multiply(xc, self._inv_h[:c])
        f += self._shift[:c]
        np.fmax(f, self._offsets[:c], out=f)  # no lower than node 0, where NaN goes too
        j = f.astype(np.intp)
        j -= xc < self._xp.take(j, mode="clip", out=f)
        j += xc >= self._xp_next.take(j, mode="clip", out=f)
        xc -= self._xp.take(j, mode="clip", out=f)
        xc *= slope.ravel().take(j, mode="clip", out=f)
        xc += fp.ravel().take(j, mode="clip", out=f)
        return xc.T


def calibrate_local_vol(
    cs: CallSurface,
    horizon: float,
    *,
    n_times: int = 64,
    n_spots: int = 161,
) -> LocalVolSurface:
    """Tabulate :func:`local_vol` of ``cs`` on a (time, log spot) grid.

    The log-spot grid is centred on the spot.  Its half-width is six
    total standard deviations of the at-the-money variance at the horizon
    (scaled linearly in time past the last quote), and at least the quoted
    moneyness span plus 0.5.  Local vols use the module's floors and cap.
    The time grid runs from ``FIRST_GRID_TIME`` to the horizon, which must
    lie past it.
    """
    if not np.isfinite(horizon):
        raise SurfaceError(f"calibration horizon {horizon!r} is not finite")
    if not horizon > FIRST_GRID_TIME:
        raise SurfaceError(
            f"calibration horizon {horizon!r} must exceed the first local vol grid time "
            f"{FIRST_GRID_TIME}"
        )
    if n_times < 1 or n_spots < 1:
        raise SurfaceError(
            f"local vol grid sizes must be positive, got {n_times} times and {n_spots} spots"
        )
    f0 = cs.forward_curve.forward(0.0)
    w_ref = cs.total_variance(min(horizon, cs.expiry_max), f0)
    half_width = 6.0 * np.sqrt(max(w_ref, 1e-4) * max(1.0, horizon / min(horizon, cs.expiry_max)))
    half_width = float(max(half_width, cs.x_hi - cs.x_lo + 0.5))
    times = np.linspace(FIRST_GRID_TIME, horizon, n_times)
    log_spots = np.log(f0) + np.linspace(-half_width, half_width, n_spots)
    before = dict(cs.counters)
    w_t, convexity = cs.variance_view(times, np.exp(log_spots))
    grid = _floored_vol(cs.counters, w_t, convexity)
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
