"""Market snapshot: curves, quotes, composition and JSON ingestion.

The snapshot file format is a single JSON object:

    {
      "as_of": "2026-01-15",
      "discount_curve": [{"t": 0.5, "r": 0.02}, ...],
      "assets": [
        {"id": "A0", "spot": 100.0,
         "dividend_curve": [{"t": 1.0, "q": 0.01}, ...],
         "vols": {"maturities": [...], "strikes": [[...], ...],
                  "values": [[...], ...]}},
        ...
      ],
      "index": {"id": "IDX", "spot": 431.5, "vols": {...}},
      "composition": [{"id": "A0", "weight": 0.25}, ...]
    }

The index dividend yield is never read from the file; it is derived from the
constituent forwards so that the index forward equals the weighted sum of
constituent forwards at every maturity.  If the quoted index spot differs
from the weighted sum of constituent spots by at most 1e-4 relative, the
weights are rescaled proportionally; a larger gap is an error.
"""
from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from ..errors import SnapshotError, SurfaceError
from .curves import BlendedYieldCurve, ForwardCurve, RateCurve
from .surfaces import CallSurface, VolSurface

__all__ = [
    "AssetQuote",
    "IndexComposition",
    "MarketSnapshot",
    "load_snapshot",
    "save_snapshot",
    "snapshot_from_dict",
    "snapshot_to_dict",
    "SNAPSHOT_SCHEMA",
]

_CURVE_ROW = lambda key: {
    "type": "object",
    "required": ["t", key],
    "properties": {"t": {"type": "number"}, key: {"type": "number"}},
}

_VOLS = {
    "type": "object",
    "required": ["maturities", "strikes", "values"],
    "properties": {
        "maturities": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "strikes": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
        "values": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
    },
}

SNAPSHOT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["as_of", "discount_curve", "assets", "index", "composition"],
    "properties": {
        "as_of": {"type": "string"},
        "discount_curve": {"type": "array", "items": _CURVE_ROW("r"), "minItems": 1},
        "assets": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "spot", "dividend_curve", "vols"],
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "spot": {"type": "number"},
                    "dividend_curve": {"type": "array", "items": _CURVE_ROW("q"), "minItems": 1},
                    "vols": _VOLS,
                },
            },
        },
        "index": {
            "type": "object",
            "required": ["id", "spot", "vols"],
            "properties": {
                "id": {"type": "string", "minLength": 1},
                "spot": {"type": "number"},
                "vols": _VOLS,
            },
        },
        "composition": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "weight"],
                "properties": {"id": {"type": "string"}, "weight": {"type": "number"}},
            },
        },
        "generator": {"type": "object"},
    },
}


@dataclass(frozen=True, eq=False)
class AssetQuote:
    """Spot, dividend curve and quoted vol surface of one underlying."""

    asset_id: str
    spot: float
    dividend_curve: RateCurve
    vol_surface: VolSurface

    def __post_init__(self):
        if not self.asset_id:
            raise SnapshotError("asset id must be non-empty")
        if not np.isfinite(self.spot) or self.spot <= 0.0:
            raise SnapshotError(f"asset {self.asset_id}: spot must be positive")


@dataclass(frozen=True, eq=False)
class IndexComposition:
    """Constituent ids and their index weights."""

    ids: tuple
    weights: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        weights = np.asarray(self.weights, dtype=float)
        if len(ids) != weights.size or weights.size == 0:
            raise SnapshotError("composition ids and weights must align")
        if len(set(ids)) != len(ids):
            raise SnapshotError("composition contains a duplicate id")
        if np.any(~np.isfinite(weights)):
            raise SnapshotError("composition weight is not finite")
        if np.any(weights < 0.0):
            bad = ids[int(np.argmax(weights < 0.0))]
            raise SnapshotError(f"negative weight for {bad}")
        if not np.any(weights > 0.0):
            raise SnapshotError("composition needs at least one positive weight")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "weights", weights)


@dataclass(eq=False)
class MarketSnapshot:
    """One observation date of the whole market.

    Weights are reconciled against the index spot at construction; forward
    curves and the derived index yield are built once, and every call
    surface shares its asset's forward curve.
    """

    as_of: _dt.date
    discount_curve: RateCurve
    assets: tuple  # tuple[AssetQuote]
    index: AssetQuote
    composition: IndexComposition
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.assets = tuple(self.assets)
        by_id = {}
        for quote in self.assets:
            if quote.asset_id in by_id:
                raise SnapshotError(f"duplicate asset id {quote.asset_id}")
            by_id[quote.asset_id] = quote
        if self.index.asset_id in by_id:
            raise SnapshotError("index id collides with a constituent id")
        for asset_id in self.composition.ids:
            if asset_id not in by_id:
                raise SnapshotError(f"composition references unknown id {asset_id}")
        self._by_id = by_id

        order = [by_id[i] for i in self.composition.ids]
        spots = np.array([q.spot for q in order])
        basket = float(self.composition.weights @ spots)
        gap = abs(basket - self.index.spot) / self.index.spot
        if gap > 1e-4:
            raise SnapshotError(
                f"index spot {self.index.spot} vs basket {basket:.6f}: "
                f"relative gap {gap:.2e} exceeds 1e-4"
            )
        if gap > 0.0:
            scaled = self.composition.weights * (self.index.spot / basket)
            self.composition = IndexComposition(self.composition.ids, scaled)

        self._forwards = {
            q.asset_id: ForwardCurve(q.spot, self.discount_curve, q.dividend_curve)
            for q in self.assets
        }
        components = tuple(self._forwards[i] for i in self.composition.ids)
        index_yield = BlendedYieldCurve(
            weights=self.composition.weights,
            components=components,
            rate_curve=self.discount_curve,
        )
        self._forwards[self.index.asset_id] = ForwardCurve(
            self.index.spot, self.discount_curve, index_yield
        )
        self._call_surfaces: dict[str, CallSurface] = {}

    # ------------------------------------------------------------------

    @property
    def n_assets(self) -> int:
        return len(self.composition.ids)

    @property
    def weights(self) -> np.ndarray:
        return self.composition.weights

    def asset(self, asset_id: str) -> AssetQuote:
        if asset_id == self.index.asset_id:
            return self.index
        try:
            return self._by_id[asset_id]
        except KeyError:
            raise SnapshotError(f"unknown asset id {asset_id}") from None

    def forward_curve(self, asset_id: str) -> ForwardCurve:
        try:
            return self._forwards[asset_id]
        except KeyError:
            raise SnapshotError(f"unknown asset id {asset_id}") from None

    def call_surface(self, asset_id: str) -> CallSurface:
        cached = self._call_surfaces.get(asset_id)
        if cached is not None:
            return cached
        quote = self.asset(asset_id)
        cs = CallSurface(quote.vol_surface, self.forward_curve(asset_id), asset_id)
        self._call_surfaces[asset_id] = cs
        return cs


# ----------------------------------------------------------------------
# JSON round trip


def _curve_from_rows(rows, key) -> RateCurve:
    return RateCurve.from_pairs([(row["t"], row[key]) for row in rows])


def _vols_from_dict(d) -> VolSurface:
    mats = d["maturities"]
    strikes = d["strikes"]
    values = d["values"]
    if len(strikes) != len(mats) or len(values) != len(mats):
        raise SurfaceError("vols: strikes/values rows must match maturities")
    return VolSurface(
        maturities=np.asarray(mats, float),
        strikes=tuple(np.asarray(r, float) for r in strikes),
        vols=tuple(np.asarray(r, float) for r in values),
    )


def snapshot_from_dict(raw: dict) -> MarketSnapshot:
    try:
        jsonschema.validate(raw, SNAPSHOT_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise SnapshotError(f"snapshot schema violation: {exc.message}") from exc
    try:
        as_of = _dt.date.fromisoformat(raw["as_of"])
    except ValueError as exc:
        raise SnapshotError(f"bad as_of date: {raw['as_of']!r}") from exc
    discount = _curve_from_rows(raw["discount_curve"], "r")
    assets = []
    for entry in raw["assets"]:
        assets.append(
            AssetQuote(
                asset_id=entry["id"],
                spot=float(entry["spot"]),
                dividend_curve=_curve_from_rows(entry["dividend_curve"], "q"),
                vol_surface=_vols_from_dict(entry["vols"]),
            )
        )
    idx = raw["index"]
    index = AssetQuote(
        asset_id=idx["id"],
        spot=float(idx["spot"]),
        dividend_curve=RateCurve.flat(0.0),  # placeholder; yield is derived
        vol_surface=_vols_from_dict(idx["vols"]),
    )
    comp = IndexComposition(
        ids=tuple(row["id"] for row in raw["composition"]),
        weights=np.array([row["weight"] for row in raw["composition"]], float),
    )
    meta = dict(raw.get("generator", {}))
    return MarketSnapshot(
        as_of=as_of,
        discount_curve=discount,
        assets=tuple(assets),
        index=index,
        composition=comp,
        meta=meta,
    )


def load_snapshot(path) -> MarketSnapshot:
    """Parse and validate a snapshot file."""
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"{path}: not valid JSON ({exc})") from exc
    return snapshot_from_dict(raw)


def _curve_rows(curve: RateCurve, key):
    return [{"t": float(t), key: float(v)} for t, v in zip(curve.times, curve.values)]


def _vols_to_dict(surface: VolSurface) -> dict:
    return {
        "maturities": [float(t) for t in surface.maturities],
        "strikes": [[float(k) for k in row] for row in surface.strikes],
        "values": [[float(v) for v in row] for row in surface.vols],
    }


def snapshot_to_dict(snapshot: MarketSnapshot) -> dict:
    out = {
        "as_of": snapshot.as_of.isoformat(),
        "discount_curve": _curve_rows(snapshot.discount_curve, "r"),
        "assets": [
            {
                "id": q.asset_id,
                "spot": float(q.spot),
                "dividend_curve": _curve_rows(q.dividend_curve, "q"),
                "vols": _vols_to_dict(q.vol_surface),
            }
            for q in snapshot.assets
        ],
        "index": {
            "id": snapshot.index.asset_id,
            "spot": float(snapshot.index.spot),
            "vols": _vols_to_dict(snapshot.index.vol_surface),
        },
        "composition": [
            {"id": i, "weight": float(w)}
            for i, w in zip(snapshot.composition.ids, snapshot.composition.weights)
        ],
    }
    if snapshot.meta:
        out["generator"] = snapshot.meta
    return out


def save_snapshot(snapshot: MarketSnapshot, path) -> None:
    with open(path, "w") as handle:
        json.dump(snapshot_to_dict(snapshot), handle, indent=2, sort_keys=True)
        handle.write("\n")
