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
      "composition": [{"id": "A0", "weight": 0.25}, ...],
      "generator": {...}
    }

Every key but ``generator`` is required.  Loading checks the JSON type of
each field it reads, and the first missing or ill-typed one raises
``SnapshotError`` naming its path, e.g. ``assets[0].spot``.

The index has no dividend curve in the file.  The index is the basket, so
its forward is the weighted sum of the constituent forwards at every
maturity.  If the quoted index spot differs from the weighted sum of
constituent spots by at most 1e-4 relative, the weights are rescaled
proportionally; a larger gap is an error.  So is a forward, the index's
included, that is not finite and positive at a quoted maturity of its asset.
"""
from __future__ import annotations

import datetime as _dt
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .._inputs import NUMBER, OBJECT, TEXT, is_number_rows, is_numbers, read_field, read_json
from ..errors import SnapshotError
from .curves import BasketForwardCurve, ForwardCurve, RateCurve
from .surfaces import CallSurface, VolSurface

__all__ = [
    "AssetQuote",
    "IndexComposition",
    "MarketSnapshot",
    "load_snapshot",
    "save_snapshot",
    "snapshot_from_dict",
    "snapshot_to_dict",
]


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

    Weights are reconciled against the index spot at construction; the
    forward curves, the index's basket forward among them, are built and
    checked once, and every call surface shares its asset's forward curve.
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
        self._forwards[self.index.asset_id] = BasketForwardCurve(
            self.composition.weights,
            tuple(self._forwards[i] for i in self.composition.ids),
            self.discount_curve,
        )
        for quote in (*self.assets, self.index):
            mats = quote.vol_surface.maturities
            with np.errstate(all="ignore"):  # reported below, not warned about
                fwd = self._forwards[quote.asset_id].forward(mats)
            bad = ~((fwd > 0.0) & (fwd < np.inf))
            if bad.any():
                raise SnapshotError(
                    f"asset {quote.asset_id}: forward {float(fwd[bad][0])!r} at maturity "
                    f"{float(mats[bad][0])!r} is not finite and positive"
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

    def forward_curve(self, asset_id: str) -> ForwardCurve | BasketForwardCurve:
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


_get = functools.partial(read_field, error=SnapshotError)

_ID = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
_OBJECTS = (lambda v: isinstance(v, list) and len(v) > 0 and all(isinstance(e, dict) for e in v),
            "a non-empty list of objects")
_MATURITIES = (lambda v: is_numbers(v) and len(v) > 0, "a non-empty list of numbers")
_ROWS = (is_number_rows, "a list of number lists")


def _entries(obj, path) -> list:
    """``(path[i], entry)`` for each object of the non-empty list at ``path``."""
    return [(f"{path}[{i}]", entry) for i, entry in enumerate(_get(obj, path, _OBJECTS))]


def _read_curve(obj, path, key) -> list:
    """The ``(t, key)`` pairs of the curve rows at ``path``."""
    return [(_get(row, f"{p}.t", NUMBER), _get(row, f"{p}.{key}", NUMBER))
            for p, row in _entries(obj, path)]


def _read_vols(obj, path) -> tuple:
    """The maturities, strike rows and vol rows of the surface at ``path``."""
    vols = _get(obj, path, OBJECT)
    return tuple(_get(vols, f"{path}.{key}", kind) for key, kind in
                 (("maturities", _MATURITIES), ("strikes", _ROWS), ("values", _ROWS)))


def snapshot_from_dict(raw: dict) -> MarketSnapshot:
    """Read every field with its JSON type checked, then build the snapshot;
    a well-typed but bad value fails in the object that holds it."""
    if not isinstance(raw, dict):
        raise SnapshotError(f"snapshot must be an object, got {type(raw).__name__}")
    as_of = _get(raw, "as_of", TEXT)
    discount = _read_curve(raw, "discount_curve", "r")
    assets = [
        (_get(entry, f"{p}.id", _ID), _get(entry, f"{p}.spot", NUMBER),
         _read_curve(entry, f"{p}.dividend_curve", "q"), _read_vols(entry, f"{p}.vols"))
        for p, entry in _entries(raw, "assets")
    ]
    idx = _get(raw, "index", OBJECT)
    index_id, index_spot = _get(idx, "index.id", _ID), _get(idx, "index.spot", NUMBER)
    index_vols = _read_vols(idx, "index.vols")
    comp = [(_get(row, f"{p}.id", TEXT), _get(row, f"{p}.weight", NUMBER))
            for p, row in _entries(raw, "composition")]
    meta = _get(raw, "generator", OBJECT) if "generator" in raw else {}
    try:
        date = _dt.date.fromisoformat(as_of)
    except ValueError as exc:
        raise SnapshotError(f"bad as_of date: {as_of!r}") from exc
    return MarketSnapshot(
        as_of=date,
        discount_curve=RateCurve.from_pairs(discount),
        assets=tuple(
            AssetQuote(asset_id, float(spot), RateCurve.from_pairs(dividends), VolSurface(*vols))
            for asset_id, spot, dividends, vols in assets
        ),
        # the index dividend curve is a placeholder; its forward is the basket's
        index=AssetQuote(index_id, float(index_spot), RateCurve.flat(0.0), VolSurface(*index_vols)),
        composition=IndexComposition(
            tuple(i for i, _ in comp), np.array([w for _, w in comp], float)
        ),
        meta=dict(meta),
    )


def load_snapshot(path) -> MarketSnapshot:
    """Parse and validate a snapshot file."""
    return snapshot_from_dict(read_json(path, SnapshotError))


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
