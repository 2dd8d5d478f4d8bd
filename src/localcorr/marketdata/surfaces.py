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
from .curves import ForwardCurve

__all__ = ["SmoothingParams", "VolSurface", "CallEval", "CallSurface"]


@dataclass(frozen=True)
class SmoothingParams:
    """Knobs of the surface smoother and of CDF inversion built on it."""

    moneyness_grid_points: int = 121
    cdf_grid_points: int = 2001
    tail_width: float = 10.0  # tail half-width in units of total stdev

    def __post_init__(self):
        if self.moneyness_grid_points < 11:
            raise SurfaceError("moneyness grid needs at least 11 points")
        if self.cdf_grid_points < 101:
            raise SurfaceError("cdf grid needs at least 101 points")
        if self.tail_width <= 1.0:
            raise SurfaceError("tail width must exceed one total stdev")


@dataclass(frozen=True, eq=False)
class VolSurface:
    """Quoted implied vols: per-maturity strike lists and a vol grid."""

    maturities: np.ndarray
    strikes: tuple  # tuple of 1-d arrays, one per maturity
    vols: tuple  # tuple of 1-d arrays matching ``strikes``
    smoothing: SmoothingParams = SmoothingParams()

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


@dataclass(frozen=True, eq=False)
class VarianceView:
    """Total variance and its derivatives at one expiry.

    ``convexity`` is the dimensionless factor multiplying the Gaussian
    density in d2C/dK2; it is positive iff the smile is free of
    butterfly arbitrage at these strikes.
    """

    expiry: float
    strike: np.ndarray
    log_moneyness: np.ndarray
    w: np.ndarray
    w_x: np.ndarray
    w_xx: np.ndarray
    w_t: np.ndarray
    convexity: np.ndarray
    forward: float
    df: float
    extrapolated: np.ndarray


def _convexity(x, w, wx, wxx):
    """Convexity factor g with d2C/dK2 = DF·n(d2)·g/(K·sqrt(w))."""
    return (
        np.square(1.0 - x * wx / (2.0 * w))
        - 0.25 * np.square(wx) * (1.0 / w + 0.25)
        + 0.5 * wxx
    )


class _Profile:
    """Cached per-maturity slice: splines of w and dw/dT over moneyness."""

    __slots__ = ("expiry", "df", "forward", "rate", "carry", "w_spline", "wt_spline", "x_lo", "x_hi")

    def __init__(self, expiry, df, forward, rate, carry, w_spline, wt_spline, x_lo, x_hi):
        self.expiry = expiry
        self.df = df
        self.forward = forward
        self.rate = rate
        self.carry = carry
        self.w_spline = w_spline
        self.wt_spline = wt_spline
        self.x_lo = x_lo
        self.x_hi = x_hi


class CallSurface:
    """Smooth call-price surface of one asset with analytic derivatives.

    Construction needs the quoted :class:`VolSurface` and the asset's
    :class:`ForwardCurve` (which carries funding and dividend curves).  All
    queries accept scalar or array strikes at a fixed expiry.
    """

    def __init__(self, surface: VolSurface, forward_curve: ForwardCurve, asset_id: str = ""):
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
        self.x_grid = np.linspace(x_lo, x_hi, surface.smoothing.moneyness_grid_points)

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
    # profile construction

    def _profile(self, expiry: float) -> _Profile:
        expiry = float(expiry)
        if not np.isfinite(expiry) or expiry <= 0.0:
            raise SurfaceError(f"surface query needs a positive expiry, got {expiry!r}")
        cached = self._profiles.get(expiry)
        if cached is not None:
            return cached
        if expiry <= self.expiry_max:
            w_vals = self._pchip(expiry)
            wt_vals = self._pchip_d(expiry)
        else:
            self.counters["expiry_extrapolated"] += 1
            w_end = self._pchip(self.expiry_max)
            wt_vals = self._pchip_d(self.expiry_max)
            w_vals = w_end + wt_vals * (expiry - self.expiry_max)
        w_vals = np.maximum(w_vals, 1e-12)
        w_spline = CubicSpline(self.x_grid, w_vals, bc_type="natural")
        wt_spline = CubicSpline(self.x_grid, wt_vals, bc_type="natural")
        fc = self.forward_curve
        prof = _Profile(
            expiry=expiry,
            df=float(fc.discount(expiry)),
            forward=float(fc.forward(expiry)),
            rate=float(fc.rate_curve.rate(expiry)),
            carry=float(fc.rate_curve.rate(expiry) - fc.drift(expiry)),
            w_spline=w_spline,
            wt_spline=wt_spline,
            x_lo=self.x_lo,
            x_hi=self.x_hi,
        )
        if len(self._profiles) > 256:
            self._profiles.clear()
        self._profiles[expiry] = prof
        return prof

    def _variance_terms(self, prof: _Profile, x: np.ndarray):
        """w, dw/dx, d2w/dx2, dw/dT at ``x`` with flat-vol tails."""
        inside = (x >= prof.x_lo) & (x <= prof.x_hi)
        xc = np.clip(x, prof.x_lo, prof.x_hi)
        w = prof.w_spline(xc)
        wx = np.where(inside, prof.w_spline(xc, 1), 0.0)
        wxx = np.where(inside, prof.w_spline(xc, 2), 0.0)
        wt = prof.wt_spline(xc)
        n_out = int(np.count_nonzero(~inside))
        if n_out:
            self.counters["strike_extrapolated"] += n_out
        return np.maximum(w, 1e-14), wx, wxx, wt, ~inside

    # ------------------------------------------------------------------
    # queries

    def evaluate(self, expiry: float, strike) -> CallEval:
        """Price and analytic derivatives for strikes at one expiry."""
        prof = self._profile(expiry)
        k = np.atleast_1d(np.asarray(strike, dtype=float))
        if np.any(~np.isfinite(k)) or np.any(k <= 0.0):
            raise SurfaceError("strikes must be positive and finite")
        x = np.log(k / prof.forward)
        w, wx, wxx, wt, extrap = self._variance_terms(prof, x)
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

    def variance_view(self, expiry: float, strike) -> VarianceView:
        """Total variance, its derivatives and the convexity factor.

        The convexity factor g satisfies d2C/dK2 = DF·n(d2)·g/(K·sqrt(w)),
        so ratios of the call derivatives reduce to ratios of these terms
        with the Gaussian prefactor cancelled, which stays well behaved
        arbitrarily far from the money.
        """
        prof = self._profile(expiry)
        k = np.atleast_1d(np.asarray(strike, dtype=float))
        if np.any(~np.isfinite(k)) or np.any(k <= 0.0):
            raise SurfaceError("strikes must be positive and finite")
        x = np.log(k / prof.forward)
        w, wx, wxx, wt, extrap = self._variance_terms(prof, x)
        g = _convexity(x, w, wx, wxx)
        return VarianceView(
            expiry=prof.expiry,
            strike=k,
            log_moneyness=x,
            w=w,
            w_x=wx,
            w_xx=wxx,
            w_t=wt,
            convexity=g,
            forward=prof.forward,
            df=prof.df,
            extrapolated=extrap,
        )

    def price(self, expiry: float, strike):
        out = self.evaluate(expiry, strike).price
        return float(out[0]) if np.ndim(strike) == 0 else out

    def implied_vol(self, expiry: float, strike):
        prof = self._profile(expiry)
        k = np.atleast_1d(np.asarray(strike, dtype=float))
        x = np.log(k / prof.forward)
        w, _, _, _, _ = self._variance_terms(prof, x)
        out = np.sqrt(w / prof.expiry)
        return float(out[0]) if np.ndim(strike) == 0 else out

    def total_variance(self, expiry: float, strike):
        prof = self._profile(expiry)
        k = np.atleast_1d(np.asarray(strike, dtype=float))
        w, _, _, _, _ = self._variance_terms(prof, np.log(k / prof.forward))
        return float(w[0]) if np.ndim(strike) == 0 else w

    def forward(self, expiry: float) -> float:
        return self._profile(expiry).forward

    def discount(self, expiry: float) -> float:
        return self._profile(expiry).df
