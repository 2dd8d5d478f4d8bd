"""Local correlation model: state inversion and Monte Carlo pricing."""
from .engine import (
    CalibratedMarket,
    PathCube,
    PayoffSpec,
    PriceResult,
    SimDiagnostics,
    SimulationConfig,
    average_correlation,
    calibrate_market,
    price_european,
    probe_bounds,
    simulate,
)
from .state import (
    BoundsReport,
    CovarianceTerms,
    StateSolution,
    check_dispersion_bounds,
    covariance_terms,
    solve_state,
)

__all__ = [
    "CalibratedMarket",
    "PathCube",
    "PayoffSpec",
    "PriceResult",
    "SimDiagnostics",
    "SimulationConfig",
    "average_correlation",
    "calibrate_market",
    "price_european",
    "probe_bounds",
    "simulate",
    "BoundsReport",
    "CovarianceTerms",
    "StateSolution",
    "check_dispersion_bounds",
    "covariance_terms",
    "solve_state",
]
