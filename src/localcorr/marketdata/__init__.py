"""Market data model: curves, Black formula, surfaces and snapshots."""
from .black import black_call, black_put, black_vega, implied_vol
from .curves import BlendedYieldCurve, DiscountCurve, ForwardCurve, RateCurve
from .snapshot import (
    SNAPSHOT_SCHEMA,
    AssetQuote,
    IndexComposition,
    MarketSnapshot,
    call_surface,
    load_snapshot,
    save_snapshot,
    snapshot_from_dict,
    snapshot_to_dict,
)
from .surfaces import CallEval, CallSurface, VolSurface

__all__ = [
    "black_call",
    "black_put",
    "black_vega",
    "implied_vol",
    "RateCurve",
    "DiscountCurve",
    "ForwardCurve",
    "BlendedYieldCurve",
    "VolSurface",
    "CallSurface",
    "CallEval",
    "AssetQuote",
    "IndexComposition",
    "MarketSnapshot",
    "call_surface",
    "load_snapshot",
    "save_snapshot",
    "snapshot_from_dict",
    "snapshot_to_dict",
    "SNAPSHOT_SCHEMA",
]
