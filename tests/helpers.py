"""Shared fixtures and independent oracles used across the test suite.

Oracles here are written from scratch against textbook identities so they
do not share code paths with the library internals they check.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.stats import norm

from localcorr.marketdata.curves import ForwardCurve, RateCurve
from localcorr.marketdata.snapshot import (
    AssetQuote,
    IndexComposition,
    MarketSnapshot,
)
from localcorr.marketdata.surfaces import VolSurface

AS_OF = dt.date(2024, 6, 28)

# ---------------------------------------------------------------------------
# quadrature oracles


def quad_black_call(forward, strike, expiry, vol, df=1.0, n=200):
    """Quadrature price of a lognormal call, independent of the closed form.

    Integrates only above the exercise boundary so the integrand is smooth
    and Gauss-Legendre converges spectrally.
    """
    s = vol * np.sqrt(expiry)
    z0 = (np.log(strike / forward) + 0.5 * s * s) / s
    z, w = np.polynomial.legendre.leggauss(n)
    # map [-1, 1] onto [z0, z0 + 14]; the tail beyond is below 1e-40
    half = 7.0
    zz = z0 + half * (z + 1.0)
    pdf = np.exp(-0.5 * zz * zz) / np.sqrt(2.0 * np.pi)
    spots = forward * np.exp(s * zz - 0.5 * s * s)
    return df * half * float(np.sum(w * pdf * (spots - strike)))


def cond_basket_call(forwards, vols, weights, rho, strike, expiry, df=1.0, n=200):
    """Two-asset lognormal basket call by conditioning on the first factor.

    Conditional on z1 the second asset stays lognormal, so the inner
    expectation is an exact one-dimensional call and only the smooth outer
    integral needs quadrature.
    """
    f1, f2 = forwards
    v1, v2 = vols
    w1, w2 = weights
    s1 = v1 * np.sqrt(expiry)
    s2 = v2 * np.sqrt(expiry)
    z, wq = hermegauss(n)
    wq = wq / np.sqrt(2.0 * np.pi)
    spot1 = f1 * np.exp(s1 * z - 0.5 * s1 * s1)
    f2c = f2 * np.exp(s2 * rho * z - 0.5 * s2 * s2 * rho * rho)
    s2c = s2 * np.sqrt(1.0 - rho * rho)
    out = np.empty_like(z)
    for i in range(z.size):
        k = (strike - w1 * spot1[i]) / w2
        if k <= 1e-12 or s2c <= 1e-14:
            out[i] = max(w1 * spot1[i] + w2 * f2c[i] - strike, 0.0)
        else:
            d1 = (np.log(f2c[i] / k) + 0.5 * s2c * s2c) / s2c
            out[i] = w2 * (f2c[i] * norm.cdf(d1) - k * norm.cdf(d1 - s2c))
    return df * float(np.sum(wq * out))


def bisect_implied_vol(price, forward, strike, expiry, df=1.0):
    """Bisection implied vol, 200 halvings of [1e-6, 10]."""

    def bs(vol):
        s = vol * np.sqrt(expiry)
        d1 = (np.log(forward / strike) + 0.5 * s * s) / s
        return df * (forward * norm.cdf(d1) - strike * norm.cdf(d1 - s))

    lo, hi = 1e-6, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bs(mid) < price:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# random matrices


def random_correlation(rng, n, k=None):
    """Random full-rank correlation matrix from noisy factor loadings."""
    k = k or max(2, n // 2)
    loads = rng.standard_normal((n, k))
    cov = loads @ loads.T + np.diag(rng.uniform(0.1, 1.0, size=n))
    d = 1.0 / np.sqrt(np.diag(cov))
    mat = cov * np.outer(d, d)
    np.fill_diagonal(mat, 1.0)
    return 0.5 * (mat + mat.T)


# ---------------------------------------------------------------------------
# quadratic-form oracles of a correlation family, parametrised by the state u


def _scaled(fam, a, u):
    """S(u) per row, and the loadings b = S(u) a and c = Xi b."""
    scale = 1.0 / np.sqrt(1.0 + np.square(fam.mode)[None, :] * np.square(u)[:, None])
    b = a * scale
    return scale, b, b * fam.mode[None, :]


def _limit_form(c, kappa):
    """Per-row c_p' D c_p at the branch limit D of ``kappa``, a scalar or one flag
    per row: (sum_i c_pi)^2 raising, sum_i c_pi^2 lowering."""
    if np.ndim(kappa) == 0:
        return np.square(np.einsum("pi->p", c)) if kappa else np.einsum("pi,pi->p", c, c)
    return np.where(kappa > 0, _limit_form(c, 1), _limit_form(c, 0))


def quad_form(fam, a, u, kappa):
    """Per-row a_p' R(u_p, kappa_p) a_p of family ``fam`` for loadings ``a`` (p, n).

    S(u) and the center term are shared by both branches; only the limit
    term c'Dc, (sum c)^2 raising and sum c^2 lowering, depends on
    ``kappa``, a scalar or one flag per row.
    """
    _, b, c = _scaled(fam, a, u)
    return np.einsum("pi,pi->p", b @ fam.center, b) + np.square(u) * _limit_form(c, kappa)


def quad_form_slope(fam, a, u, kappa):
    """``quad_form`` on one branch and its derivative in lambda = u^2 / (1 + u^2).

    With s_i = 1 / sqrt(1 + xi_i^2 u^2), b = s a, c = xi b and
    w = (xi s)^2 the form is f = b'Cb + u^2 c'Dc, and

        df/dlambda = [-(Cb).(w b) + c'Dc - u^2 (Dc).(w c)] (1 + u^2)^2

    since d(u^2)/dlambda = (1 + u^2)^2.  (Dc).(w c) is (sum c)(sum w c)
    raising and sum w c^2 lowering; the value has ``quad_form``'s bits.
    """
    scale, b, c = _scaled(fam, a, u)
    cb = b @ fam.center
    along = _limit_form(c, kappa)
    u2 = np.square(u)
    value = np.einsum("pi,pi->p", cb, b) + u2 * along
    w = np.square(fam.mode[None, :] * scale)
    wc = w * c
    if kappa:
        cross = np.einsum("pi->p", c) * np.einsum("pi->p", wc)
    else:
        cross = np.einsum("pi,pi->p", c, wc)
    slope = along - np.einsum("pi,pi->p", cb, w * b) - u2 * cross
    return value, slope * np.square(1.0 + u2)


# ---------------------------------------------------------------------------
# snapshot builders

_MONEYNESS = np.arange(0.5, 1.61, 0.05)


def flat_quote(asset_id, spot, vol, rate_curve, dividend=0.0, maturities=(0.5, 1.0, 1.5, 2.0, 2.5)):
    """Asset quote with a flat implied vol at every listed expiry."""
    div_curve = RateCurve.flat(dividend)
    fc = ForwardCurve(spot, rate_curve, div_curve)
    mats = np.asarray(maturities, dtype=float)
    return AssetQuote(
        asset_id,
        spot,
        div_curve,
        VolSurface(
            maturities=mats,
            strikes=tuple(_MONEYNESS * fc.forward(t) for t in mats),
            vols=tuple(np.full(_MONEYNESS.size, vol) for _ in mats),
        ),
    )


def index_quote(index_id, level, vol_fn, rate_curve, maturities=(0.5, 1.0, 1.5, 2.0, 2.5)):
    """Index quote; vol_fn(expiry, strike) supplies the implied vol grid."""
    mats = np.asarray(maturities, dtype=float)
    strikes = tuple(_MONEYNESS * level * np.exp(rate_curve.integral(t)) for t in mats)
    vols = tuple(
        np.array([vol_fn(t, k) for k in row]) for t, row in zip(mats, strikes)
    )
    return AssetQuote(index_id, level, RateCurve.flat(0.0),
                      VolSurface(maturities=mats, strikes=strikes, vols=vols))


def flat_snapshot(specs, weights, index_vol, rate=0.02, index_level=None):
    """Snapshot of flat-vol assets under a flat index surface.

    specs is a sequence of (asset_id, spot, vol) triples.
    """
    rc = RateCurve.flat(rate)
    assets = tuple(flat_quote(aid, spot, vol, rc) for aid, spot, vol in specs)
    weights = np.asarray(weights, dtype=float)
    level = index_level
    if level is None:
        level = float(np.dot(weights, [s for _, s, _ in specs]))
    index = index_quote("IDX", level, lambda t, k: index_vol, rc)
    return MarketSnapshot(
        as_of=AS_OF,
        discount_curve=rc,
        assets=assets,
        index=index,
        composition=IndexComposition(tuple(s[0] for s in specs), weights),
    )
