"""Gaussian-copula basket pricing on smoothed marginal distributions.

Constituent terminal laws come from the option surfaces through monotone
inverse-CDF tables, so each marginal reprices its own vanilla strip by
construction; the copula correlation is the only free input.  Sampling
draws scrambled Sobol points in a fixed number of independent partitions,
and the spread of per-partition prices gives the standard error estimate.

Deep in-the-money basket calls are priced on the out-of-the-money side
and carried across by parity against the exact basket forward, which
keeps the Monte Carlo error on the small put leg instead of the dominant
forward leg.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from ._inputs import check_describable, is_integer
from .corrfam import cholesky_lower, repair_psd, validate_correlation
from .dupire import InverseCdfTable, inverse_cdf
from .errors import CorrelationError, PricingError
from .marketdata.black import implied_vol
from .marketdata.snapshot import MarketSnapshot
from .rng import sobol_seed

__all__ = [
    "CopulaSpec",
    "CopulaPrice",
    "SkewReport",
    "flat_correlation",
    "marginal_tables",
    "copula_basket_call",
    "fit_flat_correlation",
    "skew_comparison",
]

_UNIFORM_EPS = 1e-12
MIN_SAMPLES = 1000

#: independent sampling partitions; their spread gives the standard error
_PARTITIONS = 16


@dataclass(frozen=True)
class CopulaSpec:
    """Correlation and sampling configuration for copula basket pricing.

    ``correlation`` may stay None for operations that fit or sweep it.
    ``n_samples`` and ``seed`` must be integers in the int64 range; numpy
    integers pass.
    """

    correlation: np.ndarray | None = None
    n_samples: int = 1 << 16
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise PricingError(f"{name} must be an integer in the int64 range, got {value!r}")
        if self.n_samples < MIN_SAMPLES:
            raise PricingError(f"need at least {MIN_SAMPLES} samples")
        if self.correlation is not None:
            object.__setattr__(
                self, "correlation", repair_psd(validate_correlation(self.correlation))
            )

    @property
    def partition_size(self) -> int:
        """Samples per partition, rounded up to a power of 2 for Sobol."""
        return 1 << int(np.ceil(np.log2(-(-self.n_samples // _PARTITIONS))))

    @property
    def total_samples(self) -> int:
        return _PARTITIONS * self.partition_size


@dataclass(frozen=True)
class CopulaPrice:
    """Basket call prices with partition-spread standard errors."""

    expiry: float
    strikes: np.ndarray
    prices: np.ndarray
    stderrs: np.ndarray
    basket_forward: float
    df: float
    n_samples: int
    counters: dict = field(default_factory=dict)

    def implied_vols(self) -> np.ndarray:
        return np.array([
            implied_vol(p, self.basket_forward, k, self.expiry, self.df)
            for p, k in zip(self.prices, self.strikes)
        ])


def flat_correlation(n: int, rho: float) -> np.ndarray:
    """Equicorrelation matrix; ``rho`` must keep it positive semidefinite."""
    if n < 1:
        raise CorrelationError("need at least one asset")
    lo = -1.0 / (n - 1) if n > 1 else -1.0
    if not lo - 1e-12 <= rho <= 1.0 + 1e-12:
        raise CorrelationError(f"flat correlation {rho} outside [{lo:.4f}, 1]")
    mat = np.full((n, n), float(rho))
    np.fill_diagonal(mat, 1.0)
    return mat


def marginal_tables(snapshot: MarketSnapshot, expiry: float) -> list[InverseCdfTable]:
    """Inverse-CDF tables of every basket constituent at ``expiry``."""
    return [
        inverse_cdf(snapshot.call_surface(asset_id), expiry)
        for asset_id in snapshot.composition.ids
    ]


def _normal_cube(spec: CopulaSpec, dim: int) -> np.ndarray:
    """Independent standard normals, shaped (partitions, block, dim)."""
    from scipy.stats import qmc  # slow to load, and only copula builds need it

    m = int(np.log2(spec.partition_size))
    shape = (_PARTITIONS, spec.partition_size, dim)
    check_describable(shape, f"n_samples = {spec.n_samples}", PricingError)
    cube = np.empty(shape)
    for p in range(_PARTITIONS):
        eng = qmc.Sobol(d=dim, scramble=True, seed=sobol_seed(spec.seed, p))
        cube[p] = ndtri(np.clip(eng.random_base2(m), _UNIFORM_EPS, 1.0 - _UNIFORM_EPS))
    return cube


def _uniforms(cube: np.ndarray, chol: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Clipped copula uniforms of independent normals, filled into ``out`` by partition.

    ``out`` may be ``cube`` itself.
    """
    for p in range(cube.shape[0]):
        out[p] = np.clip(ndtr(cube[p] @ chol.T), _UNIFORM_EPS, 1.0 - _UNIFORM_EPS)
    return out


def _sort_order(u: np.ndarray) -> np.ndarray:
    """Per-asset ascending order of flat sample indices into ``u``, as int32 (assets, samples)."""
    flat = u.reshape(-1, u.shape[-1])
    order = np.empty(flat.shape[::-1], dtype=np.int32)
    for i in range(flat.shape[1]):
        order[i] = np.argsort(flat[:, i])
    return order


def _spec_uniforms(spec: CopulaSpec) -> tuple[np.ndarray, np.ndarray]:
    """Copula uniforms of ``spec`` and their per-asset sort order, kept on the spec.

    Both are computed on first use.  The spec is frozen, so every maturity
    priced with it reads the same draw and the same order.  The uniforms
    overwrite the normals they come from, and both arrays are read-only.
    """
    cached = spec.__dict__.get("_uniforms")
    if cached is None:
        cube = _normal_cube(spec, spec.correlation.shape[0])
        u = _uniforms(cube, cholesky_lower(spec.correlation), out=cube)
        cached = (u, _sort_order(u))
        for a in cached:
            a.flags.writeable = False
        object.__setattr__(spec, "_uniforms", cached)
    return cached


def _baskets(u: np.ndarray, order: np.ndarray, tables: list[InverseCdfTable],
             weights: np.ndarray) -> np.ndarray:
    """Basket samples per partition; one inversion per asset covers every partition.

    ``order[i]`` sorts asset i's flat uniforms, so each table reads its
    queries in ascending order, which ``np.interp`` answers by walking the
    table instead of searching it.  The values are scattered back and
    summed over assets in asset order, so every sample keeps its bits.
    """
    flat = u.reshape(-1, u.shape[-1])
    baskets = np.zeros(flat.shape[0])
    marginal = np.empty_like(baskets)
    for i, table in enumerate(tables):
        marginal[order[i]] = table.invert(flat[order[i], i])
        baskets += weights[i] * marginal
    return baskets.reshape(u.shape[:2])


def _otm_call_prices(baskets: np.ndarray, strikes, forward: float, df: float) -> np.ndarray:
    """Discounted call prices of basket samples, one row per strike.

    Each price averages over the last axis of ``baskets``.  A strike at
    or below the forward is priced on the put side and carried across by
    parity against the exact forward, which keeps the Monte Carlo error
    on the small put leg instead of the dominant forward leg.
    """
    out = np.empty((len(strikes), *baskets.shape[:-1]))
    for j, k in enumerate(strikes):
        if k <= forward:
            out[j] = df * (forward - k + np.maximum(k - baskets, 0.0).mean(axis=-1))
        else:
            out[j] = df * np.maximum(baskets - k, 0.0).mean(axis=-1)
    return out


def _prices_from_baskets(baskets, strikes, basket_forward, df):
    """Prices and standard errors from the spread of the per-partition prices."""
    per_part = _otm_call_prices(baskets, strikes, basket_forward, df)
    return per_part.mean(axis=1), per_part.std(axis=1, ddof=1) / np.sqrt(baskets.shape[0])


def copula_basket_call(
    snapshot: MarketSnapshot,
    spec: CopulaSpec,
    expiry: float,
    strikes,
) -> CopulaPrice:
    """Price basket calls under the Gaussian copula of ``spec``.

    Marginals are the surface-implied laws of the constituents; the
    basket uses the snapshot composition weights.  ``spec.correlation``
    must be set and match the basket size.
    """
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    if expiry <= 0.0:
        raise PricingError("copula pricing needs a positive expiry")
    if spec.correlation is None:
        raise PricingError("spec.correlation is required for basket pricing")
    weights = snapshot.weights
    n = weights.size
    if spec.correlation.shape != (n, n):
        raise CorrelationError("correlation size does not match the basket")
    tables = marginal_tables(snapshot, expiry)
    baskets = _baskets(*_spec_uniforms(spec), tables, weights)
    fwd = float(snapshot.forward_curve(snapshot.index.asset_id).forward(expiry))
    df = snapshot.discount_curve.discount(expiry)
    prices, errs = _prices_from_baskets(baskets, strikes, fwd, df)
    counters = {"clamped": int(sum(t.counters.get("clamped", 0) for t in tables))}
    return CopulaPrice(
        expiry=float(expiry),
        strikes=strikes,
        prices=prices,
        stderrs=errs,
        basket_forward=fwd,
        df=float(df),
        n_samples=spec.total_samples,
        counters=counters,
    )


#: absolute tolerance of the fitted correlation level
_RHO_XTOL = 1e-10


def fit_flat_correlation(
    snapshot: MarketSnapshot,
    spec: CopulaSpec,
    expiry: float,
) -> float:
    """Flat copula correlation level matching the at-the-money index price.

    Solves for the equicorrelation whose copula basket call price equals
    the market index call price struck at the index forward.  Common
    random numbers across evaluations make the objective smooth and
    increasing in the correlation level.
    """
    weights = snapshot.weights
    n = weights.size
    if n == 1:
        raise PricingError("a flat correlation is undefined for a one-asset basket")
    index_cs = snapshot.call_surface(snapshot.index.asset_id)
    strike = index_cs.forward(expiry)
    target = index_cs.price(expiry, strike)
    tables = marginal_tables(snapshot, expiry)
    cube = _normal_cube(spec, n)
    u = np.empty_like(cube)
    fwd = float(snapshot.forward_curve(snapshot.index.asset_id).forward(expiry))
    df = snapshot.discount_curve.discount(expiry)
    k_arr = np.array([float(strike)])

    def gap(rho: float) -> float:
        _uniforms(cube, cholesky_lower(flat_correlation(n, rho)), out=u)
        baskets = _baskets(u, _sort_order(u), tables, weights)
        prices, _ = _prices_from_baskets(baskets, k_arr, fwd, df)
        return float(prices[0] - target)

    lo = -1.0 / (n - 1) + 1e-6
    hi = 1.0 - 1e-9
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo > 0.0 or g_hi < 0.0:
        raise PricingError(
            "index price outside the reachable copula range: "
            f"gap({lo:.4f}) = {g_lo:.3e}, gap({hi:.4f}) = {g_hi:.3e}"
        )
    return float(brentq(gap, lo, hi, xtol=_RHO_XTOL))


@dataclass(frozen=True)
class SkewReport:
    """Side-by-side index smile from the market and from a flat copula."""

    expiry: float
    moneyness: np.ndarray
    strikes: np.ndarray
    market_vols: np.ndarray
    copula_vols: np.ndarray
    copula_stderrs: np.ndarray
    flat_rho: float
    n_samples: int

    def rows(self):
        """(moneyness, strike, market vol, copula vol) per strike."""
        return list(zip(self.moneyness, self.strikes, self.market_vols, self.copula_vols))


def skew_comparison(
    snapshot: MarketSnapshot,
    spec: CopulaSpec,
    expiry: float,
    moneyness=(0.95, 1.0, 1.05),
    *,
    rho: float | None = None,
) -> SkewReport:
    """Compare the market index smile against a flat-correlation copula.

    ``rho`` defaults to the level fitted to the at-the-money index
    price, so the comparison isolates the shape of the smile rather than
    its level.  ``spec.correlation`` is not read: the copula always runs
    at the flat level ``rho``.
    """
    n = snapshot.weights.size
    if rho is None:
        rho = fit_flat_correlation(snapshot, spec, expiry)
    moneyness = np.atleast_1d(np.asarray(moneyness, dtype=float))
    index_cs = snapshot.call_surface(snapshot.index.asset_id)
    fwd = index_cs.forward(expiry)
    strikes = fwd * moneyness
    market_vols = np.array([index_cs.implied_vol(expiry, k) for k in strikes])
    priced = copula_basket_call(
        snapshot, replace(spec, correlation=flat_correlation(n, rho)), expiry, strikes
    )
    return SkewReport(
        expiry=float(expiry),
        moneyness=moneyness,
        strikes=strikes,
        market_vols=market_vols,
        copula_vols=priced.implied_vols(),
        copula_stderrs=priced.stderrs,
        flat_rho=float(rho),
        n_samples=priced.n_samples,
    )
