"""Black formula on forwards and its implied volatility inversion."""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from ..errors import PricingError

__all__ = ["black_call", "black_put", "black_vega", "implied_vol", "norm_pdf"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _validate(forward, strike, expiry, vol):
    if np.any(~np.isfinite(forward)) or np.any(np.asarray(forward) <= 0.0):
        raise PricingError("forward must be positive and finite")
    if np.any(~np.isfinite(strike)) or np.any(np.asarray(strike) <= 0.0):
        raise PricingError("strike must be positive and finite")
    if np.any(~np.isfinite(expiry)) or np.any(np.asarray(expiry) < 0.0):
        raise PricingError("expiry must be non-negative and finite")
    if np.any(~np.isfinite(vol)) or np.any(np.asarray(vol) < 0.0):
        raise PricingError("vol must be non-negative and finite")


def black_call(forward, strike, expiry, vol, df=1.0):
    """Discounted call price ``df * E(F_T - K)+`` under lognormal F_T.

    All arguments broadcast; ``vol * sqrt(expiry) == 0`` returns discounted
    intrinsic value.
    """
    _validate(forward, strike, expiry, vol)
    return _black_call(forward, strike, expiry, vol, df)


def _black_call(forward, strike, expiry, vol, df):
    """``black_call`` on inputs the caller has validated."""
    forward = np.asarray(forward, float)
    strike = np.asarray(strike, float)
    total_sd = np.asarray(vol, float) * np.sqrt(np.asarray(expiry, float))
    intrinsic = np.maximum(forward - strike, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = np.log(forward / strike) / total_sd + 0.5 * total_sd
        d2 = d1 - total_sd
        live = forward * ndtr(d1) - strike * ndtr(d2)
    out = df * np.where(total_sd > 0.0, live, intrinsic)
    if out.ndim == 0:
        return float(out)
    return out


def black_put(forward, strike, expiry, vol, df=1.0):
    call = black_call(forward, strike, expiry, vol, df)
    return call - df * (np.asarray(forward, float) - np.asarray(strike, float))


def black_vega(forward, strike, expiry, vol, df=1.0):
    _validate(forward, strike, expiry, vol)
    total_sd = np.asarray(vol, float) * np.sqrt(np.asarray(expiry, float))
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = np.log(np.asarray(forward, float) / np.asarray(strike, float)) / total_sd + 0.5 * total_sd
    out = df * np.asarray(forward, float) * norm_pdf(d1) * np.sqrt(np.asarray(expiry, float))
    return np.where(total_sd > 0.0, out, 0.0)


#: absolute vol tolerance of the implied vol root search
_VOL_XTOL = 1e-14


def implied_vol(price, forward, strike, expiry, df=1.0) -> float:
    """Invert ``black_call`` for the volatility of a single option.

    The price must lie in ``[df*(F-K)+, df*F)``; a price at or above the
    upper bound has no finite vol and raises :class:`PricingError`.  A price
    at intrinsic returns 0.  The inputs are validated once here; the root
    search only tries vols inside its bracket, so its objective prices
    with the unchecked kernel.
    """
    if expiry <= 0.0:
        raise PricingError("implied vol requires a positive expiry")
    _validate(forward, strike, expiry, 0.0)
    if not np.isfinite(df) or df <= 0.0:
        raise PricingError("discount factor must be positive and finite")
    if not np.isfinite(price):
        raise PricingError("price must be finite")
    intrinsic = df * max(forward - strike, 0.0)
    upper = df * forward
    scale = max(upper, 1.0)
    if price < intrinsic - 1e-12 * scale:
        raise PricingError(
            f"price {price!r} below intrinsic {intrinsic!r} for strike {strike!r}"
        )
    if price >= upper - 1e-12 * scale:
        raise PricingError(f"price {price!r} at or above the upper bound {upper!r}")
    if price <= intrinsic + 1e-14 * scale:
        return 0.0

    def objective(v):
        return _black_call(forward, strike, expiry, v, df) - price

    lo, hi = 1e-9, 20.0
    f_lo = objective(lo)
    if f_lo > 0.0:
        return 0.0
    f_hi = objective(hi)
    if f_hi < 0.0:
        raise PricingError("implied vol exceeds the search cap of 2000%")
    return float(brentq(objective, lo, hi, xtol=_VOL_XTOL, rtol=8.9e-16, maxiter=200))
