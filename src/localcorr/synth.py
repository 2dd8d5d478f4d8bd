"""Synthetic market generation for tests and experiments.

A recipe describes constituent surfaces in closed form (base level, term
slope, tanh skew in forward log-moneyness) plus a center correlation,
and the index surface is produced by one of three generators:

* ``copula-consistent``: index vols are implied from Gaussian-copula
  basket prices of the constituents at the center correlation, so the
  index market carries exactly the skew the copula explains.
* ``steepened``: copula-consistent vols plus an additive tilt in
  moneyness, creating index skew beyond what the copula accounts for.
* ``lcm-ground-truth``: index vols are re-measured from a simulation of
  the constituents under the local correlation engine pinned to its
  center state, so the full model reprices this index surface by
  construction up to Monte Carlo error.

Generators never hand-type numbers into surfaces; every index vol is
priced and inverted.  The recipe and generator settings are embedded in
the snapshot metadata.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
import datetime as _dt

import numpy as np

from .copula import CopulaSpec, copula_basket_call, flat_correlation
from .corrfam import CorrelationFamily, validate_correlation
from .errors import PricingError, RecipeError
from .lcm.engine import SimulationConfig, calibrate_market, probe_bounds, simulate
from .marketdata.black import implied_vol
from .marketdata.curves import ForwardCurve, RateCurve
from .marketdata.snapshot import AssetQuote, IndexComposition, MarketSnapshot
from .marketdata.surfaces import VolSurface

__all__ = [
    "AssetRecipe",
    "SyntheticRecipe",
    "GENERATORS",
    "tanh_vol",
    "build_snapshot",
    "recipe_from_dict",
    "recipe_to_dict",
]

GENERATORS = ("copula-consistent", "steepened", "lcm-ground-truth")

_DEFAULT_MATURITIES = (0.5, 1.0, 1.5, 2.0, 2.5)
_DEFAULT_MONEYNESS = tuple(np.round(np.arange(0.60, 1.501, 0.05), 10))

VOL_MIN = 0.02
VOL_MAX = 3.0


def tanh_vol(expiry, x, *, base: float, skew: float = 0.0, term: float = 0.0,
             width: float = 0.5):
    """Implied vol at maturity ``expiry`` and forward log-moneyness ``x``.

    Level grows linearly in maturity around the one-year point; the skew
    saturates at +/- ``skew`` over a log-moneyness scale of ``width``,
    so far wings flatten out instead of crossing zero.
    """
    level = base * (1.0 + term * (np.asarray(expiry, dtype=float) - 1.0))
    smile = skew * np.tanh(-np.asarray(x, dtype=float) / width)
    return np.clip(level + smile, VOL_MIN, VOL_MAX)


@dataclass(frozen=True)
class AssetRecipe:
    """Closed-form surface parameters of one synthetic constituent."""

    asset_id: str
    spot: float = 100.0
    base_vol: float = 0.2
    skew: float = 0.0
    term: float = 0.0
    width: float = 0.5
    dividend: float = 0.0

    def __post_init__(self):
        if self.spot <= 0.0:
            raise RecipeError(f"asset {self.asset_id}: spot must be positive")
        if not VOL_MIN <= self.base_vol <= VOL_MAX:
            raise RecipeError(f"asset {self.asset_id}: base vol outside [{VOL_MIN}, {VOL_MAX}]")
        if self.width <= 0.0:
            raise RecipeError(f"asset {self.asset_id}: skew width must be positive")

    def vols(self, expiry, x):
        return tanh_vol(expiry, x, base=self.base_vol, skew=self.skew,
                        term=self.term, width=self.width)


@dataclass(frozen=True)
class SyntheticRecipe:
    """Full description of a synthetic market.

    ``correlation`` is either a flat level or an explicit center matrix.
    ``steepen`` adds ``steepen * (1 - moneyness)`` to the index vols
    under the steepened generator; ``index_vol_shift`` shifts the final
    index surface uniformly, a stress knob for driving the index market
    out of the dispersion band on purpose.
    """

    assets: tuple
    correlation: object = 0.5
    weights: tuple | None = None
    generator: str = "copula-consistent"
    steepen: float = 0.08
    index_vol_shift: float = 0.0
    maturities: tuple = _DEFAULT_MATURITIES
    moneyness: tuple = _DEFAULT_MONEYNESS
    rate: float = 0.02
    index_id: str = "IDX"
    as_of: str = "2024-06-28"
    n_samples: int = 1 << 16
    seed: int = 11
    generator_paths: int = 100_000
    generator_steps: int = 100

    def __post_init__(self):
        if not self.assets:
            raise RecipeError("recipe needs at least one asset")
        ids = [a.asset_id for a in self.assets]
        if len(set(ids)) != len(ids):
            raise RecipeError("duplicate asset id in recipe")
        if self.generator not in GENERATORS:
            raise RecipeError(
                f"unknown generator {self.generator!r}, expected one of {GENERATORS}"
            )
        if self.weights is not None and len(self.weights) != len(self.assets):
            raise RecipeError("weights must match the asset count")
        if len(self.maturities) < 2 or any(np.diff(self.maturities) <= 0):
            raise RecipeError("maturities must be increasing, at least two")
        if len(self.moneyness) < 3 or any(np.diff(self.moneyness) <= 0):
            raise RecipeError("moneyness grid must be increasing, at least three points")

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def resolved_weights(self) -> np.ndarray:
        if self.weights is None:
            return np.full(self.n_assets, 1.0 / self.n_assets)
        return np.asarray(self.weights, dtype=float)

    def center_matrix(self) -> np.ndarray:
        if np.ndim(self.correlation) == 0:
            return flat_correlation(self.n_assets, float(self.correlation))
        return validate_correlation(np.asarray(self.correlation, dtype=float))


# ----------------------------------------------------------------------
# building blocks


def _flat_curve(rate: float) -> RateCurve:
    return RateCurve.flat(rate)


def _grid_surface(vol_fn, forward_curve, maturities, moneyness) -> VolSurface:
    """Sample ``vol_fn(T, x)`` on forward-moneyness strike rows."""
    mats = np.asarray(maturities, dtype=float)
    m = np.asarray(moneyness, dtype=float)
    x = np.log(m)
    strikes, vols = [], []
    for t in mats:
        f = forward_curve.forward(float(t))
        strikes.append(m * f)
        vols.append(np.asarray(vol_fn(t, x), dtype=float))
    return VolSurface(maturities=mats, strikes=tuple(strikes), vols=tuple(vols))


def _fill_gaps(vals: np.ndarray, label: str) -> np.ndarray:
    """Interpolate non-finite entries from their neighbors, flat at the ends."""
    bad = ~np.isfinite(vals)
    if not bad.any():
        return vals
    if bad.all():
        raise RecipeError(f"{label}: no index vol could be implied on this maturity")
    idx = np.arange(vals.size, dtype=float)
    vals = vals.copy()
    vals[bad] = np.interp(idx[bad], idx[~bad], vals[~bad])
    return vals


def _invert_row(prices, fwd, strikes, expiry, df, label) -> np.ndarray:
    vols = np.full(len(strikes), np.nan)
    for j, (p, k) in enumerate(zip(prices, strikes)):
        try:
            vols[j] = implied_vol(float(p), fwd, float(k), expiry, df)
        except (PricingError, ValueError):
            continue
    return _fill_gaps(vols, label)


def _assemble(recipe: SyntheticRecipe, prov: MarketSnapshot, index_vols,
              meta: dict) -> MarketSnapshot:
    """Final snapshot: ``prov`` with the index surface given as per-maturity vol rows."""
    fc = prov.forward_curve(recipe.index_id)
    mats = np.asarray(recipe.maturities, dtype=float)
    m = np.asarray(recipe.moneyness, dtype=float)
    strikes = tuple(m * fc.forward(float(t)) for t in mats)
    vols = tuple(
        np.clip(np.asarray(row, dtype=float) + recipe.index_vol_shift, VOL_MIN, VOL_MAX)
        for row in index_vols
    )
    surface = VolSurface(maturities=mats, strikes=strikes, vols=vols)
    return replace(prov, index=replace(prov.index, vol_surface=surface), meta=meta)


def _provisional(recipe: SyntheticRecipe, discount, quotes, weights) -> MarketSnapshot:
    """Snapshot with a flat placeholder index surface.

    Good enough to expose constituent surfaces, forwards and the derived
    index yield to the generators; the placeholder index vols are never
    read by them, and ``_assemble`` swaps in the generated ones.
    """
    spots = np.array([q.spot for q in quotes])
    level = float(np.average([a.base_vol for a in recipe.assets], weights=weights))
    mats = np.asarray(recipe.maturities, dtype=float)
    index_spot = float(weights @ spots)
    strikes = tuple(np.array([index_spot]) for _ in mats)
    vols = tuple(np.array([level]) for _ in mats)
    index = AssetQuote(
        asset_id=recipe.index_id,
        spot=index_spot,
        dividend_curve=_flat_curve(0.0),
        vol_surface=VolSurface(maturities=mats, strikes=strikes, vols=vols),
    )
    return MarketSnapshot(
        as_of=_dt.date.fromisoformat(recipe.as_of),
        discount_curve=discount,
        assets=tuple(quotes),
        index=index,
        composition=IndexComposition(tuple(a.asset_id for a in recipe.assets), weights),
    )


# ----------------------------------------------------------------------
# generators


def _copula_index_vols(recipe: SyntheticRecipe, prov: MarketSnapshot) -> list:
    """Index vol rows implied from copula basket prices at the center."""
    spec = CopulaSpec(
        correlation=recipe.center_matrix(),
        n_samples=recipe.n_samples,
        seed=recipe.seed,
    )
    fc = prov.forward_curve(recipe.index_id)
    m = np.asarray(recipe.moneyness, dtype=float)
    rows = []
    for t in recipe.maturities:
        fwd = fc.forward(float(t))
        strikes = m * fwd
        priced = copula_basket_call(prov, spec, float(t), strikes)
        rows.append(
            _invert_row(priced.prices, priced.basket_forward, strikes, float(t),
                        priced.df, f"T={t:g}")
        )
    return rows


def _ground_truth_index_vols(recipe: SyntheticRecipe, prov: MarketSnapshot) -> list:
    """Index vol rows re-measured from an engine run pinned to its center."""
    family = CorrelationFamily(center=recipe.center_matrix())
    config = SimulationConfig(
        n_paths=recipe.generator_paths,
        steps_per_year=recipe.generator_steps,
        seed=recipe.seed,
        forced_state=(0.0, 1),
    )
    horizon = float(recipe.maturities[-1])
    market = calibrate_market(prov, family, horizon, config)
    cube = simulate(market, config, dates=list(recipe.maturities))
    fc = prov.forward_curve(recipe.index_id)
    discount = prov.discount_curve
    m = np.asarray(recipe.moneyness, dtype=float)
    rows = []
    for j, t in enumerate(cube.dates):
        basket = cube.basket(j)
        fwd = fc.forward(float(t))
        df = discount.discount(float(t))
        strikes = m * fwd
        # price the out-of-the-money side and apply parity with the exact
        # forward, keeping the Monte Carlo error off the forward leg
        prices = np.empty(strikes.size)
        for i, k in enumerate(strikes):
            if k <= fwd:
                prices[i] = df * (fwd - k) + df * float(np.mean(np.maximum(k - basket, 0.0)))
            else:
                prices[i] = df * float(np.mean(np.maximum(basket - k, 0.0)))
        rows.append(_invert_row(prices, fwd, strikes, float(t), df, f"T={t:g}"))
    return rows


def build_snapshot(recipe: SyntheticRecipe) -> MarketSnapshot:
    """Generate the snapshot described by ``recipe``.

    Under the copula-consistent generator the result is also checked
    against the dispersion band along homothetic spot rays, and a recipe
    whose index market escapes the band is rejected.
    """
    discount = _flat_curve(recipe.rate)
    weights = recipe.resolved_weights()
    quotes = []
    for a in recipe.assets:
        div = _flat_curve(a.dividend)
        fc = ForwardCurve(a.spot, discount, div)
        surface = _grid_surface(a.vols, fc, recipe.maturities, recipe.moneyness)
        quotes.append(AssetQuote(a.asset_id, a.spot, div, surface))

    meta = {
        "name": recipe.generator,
        "seed": recipe.seed,
        "recipe": recipe_to_dict(recipe),
    }

    prov = _provisional(recipe, discount, quotes, weights)
    if recipe.generator == "copula-consistent" and recipe.n_assets == 1:
        # degenerate basket: the index is the lone constituent scaled by
        # its weight, so the vol rows carry over exactly
        rows = [v.copy() for v in quotes[0].vol_surface.vols]
        return _assemble(recipe, prov, rows, meta)

    if recipe.generator == "lcm-ground-truth":
        rows = _ground_truth_index_vols(recipe, prov)
    else:
        rows = _copula_index_vols(recipe, prov)
        if recipe.generator == "steepened":
            m = np.asarray(recipe.moneyness, dtype=float)
            rows = [row + recipe.steepen * (1.0 - m) for row in rows]

    snapshot = _assemble(recipe, prov, rows, meta)

    if recipe.generator == "copula-consistent":
        family = CorrelationFamily(center=recipe.center_matrix())
        config = SimulationConfig(lv_times=48, lv_spots=121)
        market = calibrate_market(snapshot, family, float(recipe.maturities[-1]), config)
        report = probe_bounds(market)
        if not report.ok:
            raise RecipeError(
                "copula-consistent recipe violates the dispersion band: "
                f"{report.n_low} low / {report.n_high} high of {report.n_checked} probes, "
                f"worst {report.worst_low:.3e} / {report.worst_high:.3e}"
            )
    return snapshot


# ----------------------------------------------------------------------
# JSON recipes


def recipe_to_dict(recipe: SyntheticRecipe) -> dict:
    out = asdict(recipe)
    out["assets"] = [asdict(a) for a in recipe.assets]
    if np.ndim(recipe.correlation) != 0:
        out["correlation"] = np.asarray(recipe.correlation, dtype=float).tolist()
    else:
        out["correlation"] = float(recipe.correlation)
    out["maturities"] = [float(t) for t in recipe.maturities]
    out["moneyness"] = [float(m) for m in recipe.moneyness]
    if recipe.weights is not None:
        out["weights"] = [float(w) for w in recipe.weights]
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


#: JSON type test and description for each declared recipe field type;
#: ``object`` is the correlation, a flat level or a center matrix
_JSON_TYPES = {
    "float": (_is_number, "a number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple": (_is_numbers, "a list of numbers"),
    "tuple | None": (lambda v: v is None or _is_numbers(v), "a list of numbers or null"),
    "object": (lambda v: _is_number(v) or isinstance(v, list) and all(map(_is_numbers, v)),
               "a number or a list of number lists"),
}


def _check_fields(cls, entry: dict, what: str):
    """Reject an unknown field or a value of the wrong JSON type."""
    declared = {f.name: f.type for f in fields(cls)}
    extra = set(entry) - set(declared)
    if extra:
        raise RecipeError(f"unknown {what} fields: {sorted(extra)}")
    for key, value in entry.items():
        test, expected = _JSON_TYPES[declared[key]]
        if not test(value):
            raise RecipeError(f"{what} field {key!r} must be {expected}, got {value!r}")


def recipe_from_dict(raw: dict) -> SyntheticRecipe:
    """Parse a JSON recipe, checking the JSON type of every field."""
    if not isinstance(raw, dict) or not isinstance(raw.get("assets"), list):
        raise RecipeError("recipe must be an object with an 'assets' list")
    kwargs = {k: v for k, v in raw.items() if k != "assets"}
    _check_fields(SyntheticRecipe, kwargs, "recipe")
    assets = []
    for entry in raw["assets"]:
        if not isinstance(entry, dict):
            raise RecipeError(f"every recipe asset must be an object, got {entry!r}")
        _check_fields(AssetRecipe, entry, "asset")
        if "asset_id" not in entry:
            raise RecipeError("every recipe asset needs an asset_id")
        assets.append(AssetRecipe(**entry))
    for key in ("maturities", "moneyness", "weights"):
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = tuple(kwargs[key])
    return SyntheticRecipe(assets=tuple(assets), **kwargs)
