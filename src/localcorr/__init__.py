"""Local correlation pricing toolkit.

Market snapshot ingestion, Dupire local volatility, Gaussian-copula
basket decoding, a one-parameter local correlation family and a Monte
Carlo engine that reprices the index option market by construction.
"""
from .copula import CopulaSpec, copula_basket_call, fit_flat_correlation, skew_comparison
from .corrfam import CorrelationFamily
from .dupire import LocalVolSurface, calibrate_local_vol, inverse_cdf, local_vol
from .errors import (
    BoundViolationError,
    CorrelationError,
    CurveError,
    EngineError,
    LocalCorrError,
    PricingError,
    RecipeError,
    SnapshotError,
    SurfaceError,
)
from .lcm import (
    CalibratedMarket,
    PathCube,
    PayoffSpec,
    PriceResult,
    SimulationConfig,
    average_correlation,
    calibrate_market,
    price_european,
    probe_bounds,
    simulate,
    solve_state,
)
from .marketdata.snapshot import MarketSnapshot, load_snapshot, save_snapshot
from .synth import AssetRecipe, SyntheticRecipe, build_snapshot

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CopulaSpec",
    "copula_basket_call",
    "fit_flat_correlation",
    "skew_comparison",
    "CorrelationFamily",
    "LocalVolSurface",
    "calibrate_local_vol",
    "inverse_cdf",
    "local_vol",
    "LocalCorrError",
    "BoundViolationError",
    "CorrelationError",
    "CurveError",
    "EngineError",
    "PricingError",
    "RecipeError",
    "SnapshotError",
    "SurfaceError",
    "CalibratedMarket",
    "PathCube",
    "PayoffSpec",
    "PriceResult",
    "SimulationConfig",
    "average_correlation",
    "calibrate_market",
    "price_european",
    "probe_bounds",
    "simulate",
    "solve_state",
    "MarketSnapshot",
    "load_snapshot",
    "save_snapshot",
    "AssetRecipe",
    "SyntheticRecipe",
    "build_snapshot",
]
