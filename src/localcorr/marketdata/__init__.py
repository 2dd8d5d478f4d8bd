"""Market data model: curves, Black formula, surfaces and snapshots."""
from .black import black_call, black_put, black_vega, implied_vol
from .curves import BlendedYieldCurve, ForwardCurve, RateCurve
from .snapshot import (
    AssetQuote,
    IndexComposition,
    MarketSnapshot,
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
    "ForwardCurve",
    "BlendedYieldCurve",
    "VolSurface",
    "CallSurface",
    "CallEval",
    "AssetQuote",
    "IndexComposition",
    "MarketSnapshot",
    "load_snapshot",
    "save_snapshot",
    "snapshot_from_dict",
    "snapshot_to_dict",
]
