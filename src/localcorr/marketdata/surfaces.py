"""Implied volatility surfaces and the smooth call-price surface behind them.

The smoother works on total implied variance ``w = vol^2 * T`` as a function
of forward log-moneyness ``x = log(K / F(T))``:

* per quoted maturity, ``w(x)`` is a natural cubic spline through the quotes,
  held flat (in vol) outside the quoted strikes;
* the per-maturity splines are resampled on a common moneyness grid and
  interpolated across maturity with a monotone C1 scheme through ``w = 0`` at
  ``T = 0``, linear in total variance beyond the last quote;
* at a query maturity the resampled values are splined in ``x`` once more, and
  call prices with their strike and maturity derivatives come from that spline
  analytically, never from finite differences of prices.

One evaluator serves every query.  The slices of any set of maturities come
from one interpolation across maturity and one natural spline solve each for
w and dw/dT, and their coefficients are read at (maturity, strike) points in
scipy's ``PPoly`` operation order.  Prices, vols and total variance read a
one-row slice cached per expiry.  ``CallSurface.variance_view`` is the one
query for the two terms of local variance, dw/dT and the butterfly convexity
factor, on a (times, strikes) grid; a row of it is the same bit for bit
whether it is asked for alone or with the rest of a grid.

Outside the quoted strike range the implied vol is flat, which makes the tails
exact lognormal closed forms.  Extrapolated queries and negative densities are
counted in ``CallSurface.counters``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.special import ndtr

from ..errors import SurfaceError
from .black import norm_pdf
from .curves import BasketForwardCurve, ForwardCurve

__all__ = ["VolSurface", "CallEval", "CallSurface"]


@dataclass(frozen=True, eq=False)
class VolSurface:
    """Quoted implied vols: per-maturity strike lists and a vol grid."""

    maturities: np.ndarray
    strikes: tuple  # tuple of 1-d arrays, one per maturity
    vols: tuple  # tuple of 1-d arrays matching ``strikes``

    def __post_init__(self):
        mats = np.asarray(self.maturities, dtype=float)
        if mats.ndim != 1 or mats.size == 0:
            raise SurfaceError("surface needs at least one maturity")
        if np.any(~np.isfinite(mats)) or np.any(mats <= 0.0):
            raise SurfaceError("maturities must be positive and finite")
        if mats.size > 1 and np.any(np.diff(mats) <= 0.0):
            raise SurfaceError("maturities must be strictly increasing")
        strikes = tuple(np.asarray(row, dtype=float) for row in self.strikes)
        vols = tuple(np.asarray(row, dtype=float) for row in self.vols)
        if len(strikes) != mats.size or len(vols) != mats.size:
            raise SurfaceError("strike and vol rows must match the maturity count")
        for t, k_row, v_row in zip(mats, strikes, vols):
            if k_row.ndim != 1 or k_row.size == 0 or k_row.shape != v_row.shape:
                raise SurfaceError(f"malformed strike/vol row at maturity {t}")
            if np.any(~np.isfinite(k_row)) or np.any(k_row <= 0.0):
                raise SurfaceError(f"strikes at maturity {t} must be positive")
            if k_row.size > 1 and np.any(np.diff(k_row) <= 0.0):
                raise SurfaceError(f"strikes at maturity {t} must be strictly increasing")
            if np.any(~np.isfinite(v_row)) or np.any(v_row <= 0.0):
                raise SurfaceError(f"vols at maturity {t} must be positive")
            with np.errstate(over="ignore"):  # reported below, not warned about
                total_variance = np.square(v_row) * t
            if not np.all(np.isfinite(total_variance)):
                raise SurfaceError(f"total variance vol^2 * T at maturity {t} is not finite")
        object.__setattr__(self, "maturities", mats)
        object.__setattr__(self, "strikes", strikes)
        object.__setattr__(self, "vols", vols)

    @property
    def max_maturity(self) -> float:
        return float(self.maturities[-1])


@dataclass(frozen=True, eq=False)
class CallEval:
    """One surface query: price, derivatives and the variance inputs."""

    expiry: float
    strike: np.ndarray
    price: np.ndarray
    d_expiry: np.ndarray  # dC/dT at fixed strike
    d_strike: np.ndarray  # dC/dK
    d2_strike: np.ndarray  # d2C/dK2
    total_variance: np.ndarray
    implied_vol: np.ndarray
    forward: float
    df: float
    extrapolated: np.ndarray  # strike outside the quoted moneyness span


def _convexity(x, w, wx, wxx):
    """Convexity factor g with d2C/dK2 = DF·n(d2)·g/(K·sqrt(w))."""
    return (
        np.square(1.0 - x * wx / (2.0 * w))
        - 0.25 * np.square(wx) * (1.0 / w + 0.25)
        + 0.5 * wxx
    )


def _cubic(c, s, s2, s3):
    """Gathered cubic pieces at offsets ``s``; ``c`` holds coefficients highest power first.

    ``s2 = s * s`` and ``s3 = s2 * s``.  The sum follows scipy's ``PPoly``
    evaluation term by term (``res += c * z * prefactor``, leaving out only
    the exact products by 1.0), so each value equals the spline object's
    bit for bit; :func:`_cubic_slopes` does the same for the derivatives.
    """
    return 0.0 + c[3] + c[2] * s + c[1] * s2 + c[0] * s3


def _cubic_slopes(c, s, s2):
    """First and second derivatives of gathered cubic pieces, in scipy's order."""
    return 0.0 + c[2] + c[1] * s * 2.0 + c[0] * s2 * 3.0, 0.0 + c[1] * 2.0 + c[0] * s * 6.0


class _Profile:
    """Cached per-maturity slice: spline coefficients of w and dw/dT over moneyness."""

    __slots__ = ("expiry", "df", "forward", "rate", "carry", "w_coef", "wt_coef")

    def __init__(self, expiry, df, forward, rate, carry, w_coef, wt_coef):
        self.expiry = expiry
        self.df = df
        self.forward = forward
        self.rate = rate
        self.carry = carry
        self.w_coef = w_coef
        self.wt_coef = wt_coef


#: points of the common moneyness grid the maturity slices are resampled on
MONEYNESS_GRID_POINTS = 121


class CallSurface:
    """Smooth call-price surface of one asset with analytic derivatives.

    Construction needs the quoted :class:`VolSurface` and the asset's
    forward curve: a :class:`ForwardCurve` (which carries funding and
    dividend curves), or the index's :class:`BasketForwardCurve`.  Queries
    accept scalar or array strikes at a fixed expiry, except
    :meth:`variance_view`, which reads a grid of times.
    """

    def __init__(self, surface: VolSurface, forward_curve: ForwardCurve | BasketForwardCurve,
                 asset_id: str = ""):
        self.surface = surface
        self.forward_curve = forward_curve
        self.asset_id = asset_id
        self.counters: Counter = Counter()
        self._profiles: dict[float, _Profile] = {}

        mats = surface.maturities
        fwd = np.array([forward_curve.forward(t) for t in mats])
        xs_rows = []
        w_rows = []
        for j, t in enumerate(mats):
            x_row = np.log(surface.strikes[j] / fwd[j])
            w_row = np.square(surface.vols[j]) * t
            xs_rows.append(x_row)
            w_rows.append(w_row)
        x_lo = min(float(row[0]) for row in xs_rows)
        x_hi = max(float(row[-1]) for row in xs_rows)
        if x_hi - x_lo < 1e-8:
            # single-strike surface; vol is flat in moneyness by construction
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        self.x_lo = x_lo
        self.x_hi = x_hi
        self.x_grid = np.linspace(x_lo, x_hi, MONEYNESS_GRID_POINTS)

        # resample each maturity's variance spline onto the common grid,
        # flat in vol beyond that maturity's own quoted span
        nodes = np.zeros((mats.size + 1, self.x_grid.size))
        for j in range(mats.size):
            x_row, w_row = xs_rows[j], w_rows[j]
            if x_row.size == 1:
                nodes[j + 1] = w_row[0]
            else:
                spl = CubicSpline(x_row, w_row, bc_type="natural")
                nodes[j + 1] = spl(np.clip(self.x_grid, x_row[0], x_row[-1]))
        self._t_nodes = np.concatenate(([0.0], mats))
        self._pchip = PchipInterpolator(self._t_nodes, nodes, axis=0, extrapolate=False)
        self._pchip_d = self._pchip.derivative()
        self.expiry_max = float(mats[-1])

    # ------------------------------------------------------------------
    # maturity slices

    def _slices(self, times: np.ndarray):
        """Forwards and moneyness-spline coefficients of w and dw/dT at ``times``.

        One monotone interpolation across maturity fills every requested
        slice, linear in total variance past the last quote, and one natural
        spline solve each for w and dw/dT covers all of them: the
        coefficient arrays are (4, grid intervals, times).
        """
        valid = np.isfinite(times) & (times > 0.0)
        if not valid.all():
            bad = float(times[~valid][0])
            raise SurfaceError(f"surface query needs a positive expiry, got {bad!r}")
        forward = self._forwards(times)
        past = times > self.expiry_max
        n_past = int(np.count_nonzero(past))
        if n_past:
            self.counters["expiry_extrapolated"] += n_past
        t_in = np.minimum(times, self.expiry_max)
        w_vals = self._pchip(t_in)
        wt_vals = self._pchip_d(t_in)
        extended = w_vals + wt_vals * (times - self.expiry_max)[:, None]
        w_vals = np.maximum(np.where(past[:, None], extended, w_vals), 1e-12)
        w_coef = CubicSpline(self.x_grid, w_vals.T, bc_type="natural").c
        wt_coef = CubicSpline(self.x_grid, wt_vals.T, bc_type="natural").c
        return forward, w_coef, wt_coef

    def _forwards(self, times: np.ndarray) -> np.ndarray:
        """Forwards at ``times``; one that is not finite and positive raises ``SurfaceError``."""
        with np.errstate(all="ignore"):  # reported below, not warned about
            forward = self.forward_curve.forward(times)
        bad = ~((forward > 0.0) & (forward < np.inf))
        if bad.any():
            raise SurfaceError(f"{self.asset_id}: forward {float(forward[bad][0])!r} at "
                               f"t = {float(times[bad][0])!r} is not finite and positive")
        return forward

    def _profile(self, expiry: float) -> _Profile:
        expiry = float(expiry)
        cached = self._profiles.get(expiry)
        if cached is not None:
            return cached
        forward, w_coef, wt_coef = self._slices(np.array([expiry]))
        fc = self.forward_curve
        prof = _Profile(
            expiry=expiry,
            df=float(fc.discount(expiry)),
            forward=float(forward[0]),
            rate=float(fc.rate_curve.rate(expiry)),
            carry=float(fc.rate_curve.rate(expiry) - fc.drift(expiry)),
            w_coef=w_coef,
            wt_coef=wt_coef,
        )
        if len(self._profiles) > 256:
            self._profiles.clear()
        self._profiles[expiry] = prof
        return prof

    def _terms(self, forward, w_coef, wt_coef, k):
        """Log-moneyness and variance terms of strikes ``k`` against forwards.

        Row r of ``k`` (and of ``forward``, a column) reads slice r of the
        coefficient arrays.  The terms are w, dw/dx, d2w/dx2 and dw/dT with
        flat-vol tails, then the mask of strikes outside the quoted
        moneyness span, which are counted.
        """
        x = np.log(k / forward)
        inside = (x >= self.x_lo) & (x <= self.x_hi)
        xc = np.clip(x, self.x_lo, self.x_hi)
        # scipy's interval: x_grid[j] <= xc < x_grid[j + 1], closed at the right end
        j = np.minimum(np.searchsorted(self.x_grid, xc, side="right") - 1, self.x_grid.size - 2)
        s = xc - self.x_grid[j]
        s2 = s * s
        s3 = s2 * s
        # slice r of interval j sits at column j * rows + r of the flattened pieces
        piece = j * x.shape[0] + np.arange(x.shape[0])[:, None]
        cw = w_coef.reshape(4, -1).take(piece, axis=1)
        w = _cubic(cw, s, s2, s3)
        wx, wxx = _cubic_slopes(cw, s, s2)
        wx = np.where(inside, wx, 0.0)
        wxx = np.where(inside, wxx, 0.0)
        wt = _cubic(wt_coef.reshape(4, -1).take(piece, axis=1), s, s2, s3)
        n_out = int(np.count_nonzero(~inside))
        if n_out:
            self.counters["strike_extrapolated"] += n_out
        return x, np.maximum(w, 1e-14), wx, wxx, wt, ~inside

    @staticmethod
    def _strikes(strike) -> np.ndarray:
        k = np.atleast_1d(np.asarray(strike, dtype=float))
        if np.any(~np.isfinite(k)) or np.any(k <= 0.0):
            raise SurfaceError("strikes must be positive and finite")
        return k

    def _query(self, expiry: float, strike):
        """Profile, strikes, log-moneyness and variance terms of one query."""
        prof = self._profile(expiry)
        k = self._strikes(strike)
        x, w, wx, wxx, wt, extrap = self._terms(prof.forward, prof.w_coef, prof.wt_coef, k[None, :])
        return prof, k, x[0], w[0], wx[0], wxx[0], wt[0], extrap[0]

    # ------------------------------------------------------------------
    # queries

    def evaluate(self, expiry: float, strike) -> CallEval:
        """Price and analytic derivatives for strikes at one expiry."""
        prof, k, x, w, wx, wxx, wt, extrap = self._query(expiry, strike)
        s = np.sqrt(w)
        d1 = -x / s + 0.5 * s
        d2 = d1 - s
        n_d1 = ndtr(d1)
        n_d2 = ndtr(d2)
        pdf_d2 = norm_pdf(d2)
        price = prof.df * (prof.forward * n_d1 - k * n_d2)
        d_strike = prof.df * (-n_d2 + pdf_d2 * wx / (2.0 * s))
        g = _convexity(x, w, wx, wxx)
        d2_strike = prof.df * pdf_d2 * g / (k * s)
        neg = int(np.count_nonzero(d2_strike < 0.0))
        if neg:
            self.counters["negative_density"] += neg
        mu = prof.rate - prof.carry
        d_expiry = -prof.rate * price + prof.df * (
            mu * prof.forward * n_d1 + k * pdf_d2 / (2.0 * s) * (wt - mu * wx)
        )
        return CallEval(
            expiry=prof.expiry,
            strike=k,
            price=price,
            d_expiry=d_expiry,
            d_strike=d_strike,
            d2_strike=d2_strike,
            total_variance=w,
            implied_vol=np.sqrt(w / prof.expiry),
            forward=prof.forward,
            df=prof.df,
            extrapolated=extrap,
        )

    def variance_view(self, times, strikes):
        """dw/dT and the convexity factor g at every (time, strike) pair, (times, strikes).

        The convexity factor satisfies d2C/dK2 = DF·n(d2)·g/(K·sqrt(w)), so
        ratios of the call derivatives reduce to ratios of these terms with
        the Gaussian prefactor cancelled, which stays well behaved
        arbitrarily far from the money; g is positive iff the smile is free
        of butterfly arbitrage there.  The surface counters add up as if
        each row were queried alone on a fresh surface.  Nothing is cached.
        """
        times = np.asarray(times, dtype=float)
        k = self._strikes(strikes)
        forward, w_coef, wt_coef = self._slices(times)
        x, w, wx, wxx, wt, _ = self._terms(forward[:, None], w_coef, wt_coef, k[None, :])
        return wt, _convexity(x, w, wx, wxx)

    def price(self, expiry: float, strike):
        out = self.evaluate(expiry, strike).price
        return float(out[0]) if np.ndim(strike) == 0 else out

    def implied_vol(self, expiry: float, strike):
        prof, _, _, w, *_ = self._query(expiry, strike)
        out = np.sqrt(w / prof.expiry)
        return float(out[0]) if np.ndim(strike) == 0 else out

    def total_variance(self, expiry: float, strike):
        _, _, _, w, *_ = self._query(expiry, strike)
        return float(w[0]) if np.ndim(strike) == 0 else w

    def forward(self, expiry: float) -> float:
        return float(self._forwards(np.array([float(expiry)]))[0])
