"""Deterministic rate and dividend curves with exact integrals.

A curve is piecewise linear in the instantaneous rate between its knots and
flat outside them.  Discount factors and forwards are exact closed-form
integrals of that interpolated rate, so drift terms queried at a time ``t``
are always consistent with the discount factors used elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CurveError

__all__ = [
    "RateCurve",
    "ForwardCurve",
    "BlendedYieldCurve",
]


def _as_array(values, name: str) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.ndim != 1 or out.size == 0:
        raise CurveError(f"{name} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(out)):
        raise CurveError(f"{name} contains non-finite values")
    return out


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Continuously compounded instantaneous rate, piecewise linear in time.

    ``rate(t)`` interpolates the knots and is flat outside them.
    ``integral(t)`` is the exact integral of ``rate`` from 0 to ``t`` and
    ``discount(t) = exp(-integral(t))``.
    """

    times: np.ndarray
    values: np.ndarray
    _knot_integrals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = _as_array(self.times, "curve times")
        values = _as_array(self.values, "curve values")
        if times.shape != values.shape:
            raise CurveError("curve times and values must have equal length")
        if np.any(times < 0.0):
            raise CurveError("curve times must be non-negative")
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise CurveError("curve times must be strictly increasing")
        # exact integral at each knot; rate is flat at values[0] before the
        # first knot and piecewise linear in between
        knot = np.empty_like(times)
        knot[0] = values[0] * times[0]
        if times.size > 1:
            seg = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
            knot[1:] = knot[0] + np.cumsum(seg)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_knot_integrals", knot)

    @classmethod
    def flat(cls, rate: float) -> "RateCurve":
        return cls(np.array([1.0]), np.array([float(rate)]))

    @classmethod
    def from_pairs(cls, pairs) -> "RateCurve":
        if not pairs:
            raise CurveError("curve needs at least one (time, rate) pair")
        times = [p[0] for p in pairs]
        values = [p[1] for p in pairs]
        return cls(np.asarray(times, float), np.asarray(values, float))

    def rate(self, t):
        return np.interp(t, self.times, self.values)

    def integral(self, t):
        """Integral of the rate from 0 to ``t`` (t may be an array)."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0):
            raise CurveError("curve integral requires t >= 0")
        idx = np.searchsorted(self.times, t_arr, side="right") - 1
        before = idx < 0
        idx_c = np.clip(idx, 0, self.times.size - 1)
        base = self._knot_integrals[idx_c]
        seg = 0.5 * (self.values[idx_c] + self.rate(t_arr)) * (t_arr - self.times[idx_c])
        out = np.where(before, self.values[0] * t_arr, base + seg)
        if np.ndim(t) == 0:
            return float(out)
        return out

    def discount(self, t):
        return np.exp(-self.integral(t))


@dataclass(frozen=True, eq=False)
class BlendedYieldCurve:
    """Dividend yield implied by a weighted basket of forward curves.

    The yield is defined so that the basket forward equals the weighted sum of
    the component forwards at every maturity:

        q(t) = r(t) - sum_i w_i F_i(t) (r(t) - q_i(t)) / sum_i w_i F_i(t)

    with the integral written through the basket forward itself, which makes
    the identity exact rather than quadrature based.
    """

    weights: np.ndarray
    components: tuple
    rate_curve: RateCurve

    def __post_init__(self):
        weights = _as_array(self.weights, "basket weights")
        if len(self.components) != weights.size:
            raise CurveError("weights and component forwards disagree in length")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", tuple(self.components))

    def _basket_forward(self, t):
        t_arr = np.asarray(t, dtype=float)
        acc = np.zeros_like(t_arr, dtype=float)
        for w, fc in zip(self.weights, self.components):
            acc = acc + w * fc.forward(t_arr)
        return acc

    def rate(self, t):
        t_arr = np.asarray(t, dtype=float)
        fwd = np.zeros_like(t_arr, dtype=float)
        drift = np.zeros_like(t_arr, dtype=float)
        r = self.rate_curve.rate(t_arr)
        for w, fc in zip(self.weights, self.components):
            f = w * fc.forward(t_arr)
            fwd = fwd + f
            drift = drift + f * (r - fc.yield_curve.rate(t_arr))
        out = r - drift / fwd
        if np.ndim(t) == 0:
            return float(out)
        return out

    def integral(self, t):
        spot0 = self._basket_forward(0.0)
        out = self.rate_curve.integral(t) - np.log(self._basket_forward(t) / spot0)
        if np.ndim(t) == 0:
            return float(out)
        return out


@dataclass(frozen=True, eq=False)
class ForwardCurve:
    """Forward curve ``F(t) = spot * exp(integral(r - q))`` of one asset."""

    spot: float
    rate_curve: RateCurve
    yield_curve: object  # RateCurve or BlendedYieldCurve

    def __post_init__(self):
        if not np.isfinite(self.spot) or self.spot <= 0.0:
            raise CurveError("forward curve requires a positive finite spot")

    def forward(self, t):
        return self.spot * np.exp(self.rate_curve.integral(t) - self.yield_curve.integral(t))

    def drift(self, t):
        """Instantaneous forward drift r(t) - q(t)."""
        return self.rate_curve.rate(t) - self.yield_curve.rate(t)

    def discount(self, t):
        return self.rate_curve.discount(t)
