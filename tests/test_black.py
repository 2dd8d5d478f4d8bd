"""Tests for the undiscounted-forward Black formulas."""

import numpy as np
import pytest

from localcorr.errors import PricingError
from localcorr.marketdata.black import (
    black_call,
    black_put,
    black_vega,
    implied_vol,
)

from helpers import bisect_implied_vol, quad_black_call


def test_call_matches_quadrature():
    """Closed form agrees with Gauss-Hermite integration of the payoff."""
    for forward, strike, expiry, vol in [
        (100.0, 100.0, 1.0, 0.2),
        (100.0, 70.0, 0.5, 0.35),
        (100.0, 140.0, 2.0, 0.15),
        (80.0, 95.0, 0.25, 0.6),
        (120.0, 60.0, 3.0, 0.1),
    ]:
        exact = black_call(forward, strike, expiry, vol, 0.97)
        quad = quad_black_call(forward, strike, expiry, vol, 0.97)
        assert abs(exact - quad) < 1e-9 * max(exact, 1.0)


def test_put_call_parity():
    """C - P = df (F - K) to machine precision."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        forward = rng.uniform(50, 150)
        strike = rng.uniform(50, 150)
        expiry = rng.uniform(0.05, 3.0)
        vol = rng.uniform(0.05, 0.8)
        df = rng.uniform(0.8, 1.0)
        call = black_call(forward, strike, expiry, vol, df)
        put = black_put(forward, strike, expiry, vol, df)
        assert abs(call - put - df * (forward - strike)) < 1e-10


def test_zero_expiry_is_intrinsic():
    assert black_call(110.0, 100.0, 0.0, 0.2) == 10.0
    assert black_call(90.0, 100.0, 0.0, 0.2) == 0.0
    assert black_put(90.0, 100.0, 0.0, 0.2) == 10.0


def test_zero_vol_is_discounted_intrinsic():
    assert abs(black_call(110.0, 100.0, 1.0, 0.0, 0.95) - 9.5) < 1e-12
    assert black_put(110.0, 100.0, 1.0, 0.0, 0.95) == 0.0


def test_call_monotone_in_vol():
    vols = np.linspace(0.01, 1.5, 60)
    prices = [black_call(100.0, 110.0, 1.0, v) for v in vols]
    assert np.all(np.diff(prices) > 0)


def test_vega_matches_finite_difference():
    for strike in (70.0, 100.0, 130.0):
        vol, h = 0.25, 1e-6
        fd = (black_call(100.0, strike, 1.0, vol + h) - black_call(100.0, strike, 1.0, vol - h)) / (2 * h)
        assert abs(black_vega(100.0, strike, 1.0, vol) - fd) < 1e-6


def test_implied_vol_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(300):
        forward = rng.uniform(50, 150)
        strike = forward * rng.uniform(0.6, 1.5)
        expiry = rng.uniform(0.1, 3.0)
        vol = rng.uniform(0.05, 0.9)
        df = rng.uniform(0.85, 1.0)
        price = black_call(forward, strike, expiry, vol, df)
        if price < 1e-12 * forward:
            continue  # numerically dead wing, no vol recoverable
        # wings have tiny vega, so the recovered vol is fuzzier there
        assert abs(implied_vol(price, forward, strike, expiry, df) - vol) < 2e-6
    atm = black_call(100.0, 100.0, 1.0, 0.2, 0.98)
    assert abs(implied_vol(atm, 100.0, 100.0, 1.0, 0.98) - 0.2) < 1e-11


def test_implied_vol_matches_bisection_oracle():
    price = black_call(100.0, 115.0, 1.25, 0.31, 0.96)
    fast = implied_vol(price, 100.0, 115.0, 1.25, 0.96)
    slow = bisect_implied_vol(price, 100.0, 115.0, 1.25, 0.96)
    assert abs(fast - slow) < 1e-10


def test_implied_vol_rejects_arbitrage_prices():
    # below intrinsic
    with pytest.raises(PricingError):
        implied_vol(4.0, 110.0, 100.0, 1.0, 1.0)
    # above the forward bound
    with pytest.raises(PricingError):
        implied_vol(101.0, 100.0, 100.0, 1.0, 1.0)
    with pytest.raises(PricingError):
        implied_vol(5.0, 100.0, 100.0, 0.0, 1.0)


@pytest.mark.parametrize("df", [float("nan"), float("inf"), 0.0, -1.0])
def test_implied_vol_rejects_bad_discount_factor(df):
    with pytest.raises(PricingError, match="discount factor"):
        implied_vol(5.0, 100.0, 100.0, 1.0, df)


def test_inputs_validated():
    with pytest.raises(PricingError):
        black_call(-1.0, 100.0, 1.0, 0.2)
    with pytest.raises(PricingError):
        black_call(100.0, 0.0, 1.0, 0.2)
    with pytest.raises(PricingError):
        black_call(100.0, 100.0, -1.0, 0.2)
    with pytest.raises(PricingError):
        black_call(100.0, 100.0, 1.0, np.nan)
