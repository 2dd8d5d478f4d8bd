"""Tests for rate curves, forward curves, and the basket forward curve."""

import numpy as np
import pytest
from scipy.integrate import quad

from localcorr.errors import CurveError
from localcorr.marketdata.curves import BasketForwardCurve, ForwardCurve, RateCurve


def test_flat_curve_closed_forms():
    rc = RateCurve.flat(0.03)
    for t in (0.0, 0.4, 1.0, 7.5):
        assert abs(rc.integral(t) - 0.03 * t) < 1e-15
        assert abs(rc.discount(t) - np.exp(-0.03 * t)) < 1e-15
        assert rc.rate(t) == 0.03


def test_piecewise_integral_matches_quadrature():
    """Exact knot integrals agree with adaptive numerical integration."""
    rc = RateCurve.from_pairs([(0.25, 0.01), (1.0, 0.025), (2.0, 0.02), (5.0, 0.04)])
    for t in (0.1, 0.25, 0.7, 1.0, 1.9, 3.3, 5.0, 6.5):
        knots = [k for k in rc.times if 0.0 < k < t]
        ref, _ = quad(rc.rate, 0.0, t, points=knots or None, limit=200)
        assert abs(rc.integral(t) - ref) < 1e-10


def test_integral_vectorized_matches_scalar():
    rc = RateCurve.from_pairs([(0.5, 0.01), (2.0, 0.03)])
    ts = np.array([0.1, 0.5, 1.3, 2.0, 4.0])
    vec = rc.integral(ts)
    for t, v in zip(ts, vec):
        assert abs(v - rc.integral(float(t))) < 1e-15


def test_curve_validation():
    with pytest.raises(CurveError):
        RateCurve(np.array([1.0, 0.5]), np.array([0.01, 0.02]))
    with pytest.raises(CurveError):
        RateCurve(np.array([-0.5, 1.0]), np.array([0.01, 0.02]))
    with pytest.raises(CurveError):
        RateCurve(np.array([1.0]), np.array([np.inf]))
    with pytest.raises(CurveError):
        rc = RateCurve.flat(0.02)
        rc.integral(-0.1)


def test_forward_curve_drift_consistency():
    """drift(t) is the log-derivative of the forward, checked by differences."""
    rc = RateCurve.from_pairs([(0.5, 0.02), (2.0, 0.035)])
    qc = RateCurve.from_pairs([(1.0, 0.01), (3.0, 0.005)])
    fc = ForwardCurve(100.0, rc, qc)
    h = 1e-6
    for t in (0.3, 0.8, 1.5, 2.5):
        fd = (np.log(fc.forward(t + h)) - np.log(fc.forward(t - h))) / (2 * h)
        assert abs(fc.drift(t) - fd) < 1e-7
    assert fc.forward(0.0) == 100.0


def test_forward_curve_requires_positive_spot():
    with pytest.raises(CurveError):
        ForwardCurve(-5.0, RateCurve.flat(0.02), RateCurve.flat(0.0))


def _basket():
    rc = RateCurve.flat(0.02)
    fc1 = ForwardCurve(100.0, rc, RateCurve.flat(0.01))
    fc2 = ForwardCurve(80.0, rc, RateCurve.from_pairs([(1.0, 0.0), (2.0, 0.03)]))
    return BasketForwardCurve(np.array([0.6, 0.4]), (fc1, fc2), rc), fc1, fc2


def test_basket_forward_is_the_weighted_sum_exactly():
    """At the spot, between the dividend knots and past the last one."""
    basket, fc1, fc2 = _basket()
    ts = np.array([0.0, 1.5, 4.0])
    assert np.array_equal(basket.forward(ts), 0.6 * fc1.forward(ts) + 0.4 * fc2.forward(ts))
    for t in ts:
        assert basket.forward(t) == 0.6 * fc1.forward(t) + 0.4 * fc2.forward(t)


def test_basket_drift_is_the_log_derivative_of_its_forward():
    basket, *_ = _basket()
    h = 1e-6
    for t in (0.4, 1.1, 1.7, 2.3, 4.0):
        fd = (np.log(basket.forward(t + h)) - np.log(basket.forward(t - h))) / (2 * h)
        assert abs(basket.drift(t) - fd) < 1e-7
