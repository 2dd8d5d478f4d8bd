"""Monte Carlo engine for the local correlation model.

Constituents follow their own local volatility dynamics; at every step
each path solves for the family state whose correlation matrix makes the
instantaneous basket variance match the index local variance at the
current basket level, and draws its normals exactly at that state from
two fixed Cholesky factors.  Index vanillas are then repriced by
construction, up to time discretisation and dispersion bound
violations, both of which are surfaced in diagnostics.

Paths run in fixed-size blocks, each with its own counter-based random
substream, and block results are reduced in block order.  Prices are
therefore bit-identical for a given seed no matter how many worker
threads execute the blocks.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from ..corrfam import CorrelationFamily
from ..dupire import LocalVolGather, LocalVolSurface, calibrate_local_vol
from ..errors import BoundViolationError, EngineError, PricingError
from ..marketdata.snapshot import MarketSnapshot
from ..rng import substream
from .state import U_MAX, BoundsReport, check_dispersion_bounds, covariance_terms, solve_state

__all__ = [
    "SimulationConfig",
    "CalibratedMarket",
    "calibrate_market",
    "PayoffSpec",
    "PriceResult",
    "SimDiagnostics",
    "PathCube",
    "simulate",
    "price_european",
    "average_correlation",
    "probe_bounds",
]

THREADS_ENV = "LOCALCORR_THREADS"

_PAYOFF_KINDS = (
    "index_call",
    "index_put",
    "asset_call",
    "asset_put",
    "worst_of_put",
    "best_of_call",
)


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one engine run; everything that affects the draw is here.

    ``bounds_policy`` decides what a dispersion bound violation does:
    "clamp" pins the state at the cap ``state.U_MAX`` and counts it,
    "strict" aborts the run.  ``forced_state`` is a test hook fixing
    (u, kappa) for every step, bypassing the solver entirely.
    """

    n_paths: int = 100_000
    steps_per_year: int = 100
    seed: int = 0
    block_size: int = 4096
    n_threads: int | None = None
    lv_times: int = 64
    lv_spots: int = 161
    bounds_policy: str = "clamp"
    forced_state: tuple[float, int] | None = None

    def __post_init__(self):
        if self.n_paths < 1 or self.block_size < 1:
            raise EngineError("n_paths and block_size must be positive")
        if self.steps_per_year < 1:
            raise EngineError("steps_per_year must be positive")
        if self.lv_times < 1 or self.lv_spots < 1:
            raise EngineError("lv_times and lv_spots must be positive")
        if self.bounds_policy not in ("clamp", "strict"):
            raise EngineError(f"unknown bounds policy {self.bounds_policy!r}")
        if self.forced_state is not None:
            try:
                u0, k0 = self.forced_state
                ok = bool(np.isfinite(u0)) and u0 >= 0.0 and k0 in (0, 1)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise EngineError(
                    "forced_state must be (u, kappa) with finite u >= 0 and kappa 0 or 1, "
                    f"got {self.forced_state!r}"
                )

    def resolve_threads(self) -> int:
        if self.n_threads is not None:
            return max(1, int(self.n_threads))
        env = os.environ.get(THREADS_ENV)
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                raise EngineError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        return 1


@dataclass(frozen=True)
class PayoffSpec:
    """European payoff on the terminal cross-section.

    Worst-of and best-of payoffs act on performances S_T / S_0, so their
    strikes are in performance units; index and single-asset payoffs use
    price-level strikes.
    """

    kind: str
    strike: float
    asset_id: str | None = None

    def __post_init__(self):
        if self.kind not in _PAYOFF_KINDS:
            raise PricingError(f"unknown payoff kind {self.kind!r}")
        if self.kind in ("asset_call", "asset_put") and not self.asset_id:
            raise PricingError("single-asset payoffs need an asset_id")
        if not 0.0 < self.strike < np.inf:
            raise PricingError(f"strike must be positive and finite, got {self.strike!r}")

    def label(self) -> str:
        tag = f"{self.kind}[{self.asset_id}]" if self.asset_id else self.kind
        return f"{tag}@{self.strike:g}"


@dataclass(frozen=True)
class PriceResult:
    payoff: PayoffSpec
    price: float
    stderr: float
    n_paths: int
    df: float


# ----------------------------------------------------------------------
# calibration


@dataclass(eq=False)
class CalibratedMarket:
    """Everything precomputed once per (snapshot, family, horizon)."""

    snapshot: MarketSnapshot
    family: CorrelationFamily
    horizon: float
    times: np.ndarray
    asset_ids: tuple
    weights: np.ndarray
    spots0: np.ndarray
    dlog_fwd: np.ndarray  # (n_steps, n) exact forward log increments
    local_vols: list[LocalVolSurface]
    index_local_vol: LocalVolSurface
    _gather: LocalVolGather = field(init=False, repr=False)

    def __post_init__(self):
        self._gather = LocalVolGather([*self.local_vols, self.index_local_vol])

    @property
    def n_assets(self) -> int:
        return self.weights.size

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def local_vol_row(self, t: float, x: np.ndarray) -> np.ndarray:
        """Local vols at time ``t`` of the columns of ``x``, shape (p, n) or (p, n + 1).

        The columns are the constituent log spots, optionally followed by
        the log basket level, which reads the index surface.
        """
        return self._gather(t, x)


def calibrate_market(
    snapshot: MarketSnapshot,
    family: CorrelationFamily,
    horizon: float,
    config: SimulationConfig | None = None,
) -> CalibratedMarket:
    """Build local vol tables, the step grid and the forward increments."""
    config = config or SimulationConfig()
    if not 0.0 < horizon < np.inf:
        raise EngineError(f"horizon must be positive and finite, got {horizon!r}")
    ids = tuple(snapshot.composition.ids)
    if family.n_assets != len(ids):
        raise EngineError(f"family has {family.n_assets} assets, composition has {len(ids)}")
    n_steps = max(1, int(np.ceil(config.steps_per_year * horizon)))
    times = np.linspace(0.0, horizon, n_steps + 1)
    fwds = np.stack([snapshot.forward_curve(a).forward(times) for a in ids], axis=1)
    local_vols = [  # the constituents, then the index
        calibrate_local_vol(
            snapshot.call_surface(a), horizon,
            n_times=config.lv_times, n_spots=config.lv_spots,
        )
        for a in (*ids, snapshot.index.asset_id)
    ]
    return CalibratedMarket(
        snapshot=snapshot,
        family=family,
        horizon=float(horizon),
        times=times,
        asset_ids=ids,
        weights=snapshot.weights,
        spots0=np.array([snapshot.asset(a).spot for a in ids]),
        dlog_fwd=np.diff(np.log(fwds), axis=0),
        local_vols=local_vols[:-1],
        index_local_vol=local_vols[-1],
    )


# ----------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class SimDiagnostics:
    """Aggregated health indicators of one simulation run."""

    n_paths: int
    n_steps: int
    n_solved: int
    kappa_up_fraction: float
    violation_high_fraction: float
    violation_low_fraction: float
    clamped_fraction: float
    mean_correlation: float  # mean pairwise level over solved path-steps

    @property
    def violation_fraction(self) -> float:
        return self.violation_high_fraction + self.violation_low_fraction

    def as_dict(self) -> dict:
        out = asdict(self)
        del out["n_solved"]
        return out


# ----------------------------------------------------------------------
# the core block loop


def _with_log_basket(ln_spots: np.ndarray, spots: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Local-vol query: the log spots and then the log basket level, column-major."""
    x = np.empty((ln_spots.shape[1] + 1, ln_spots.shape[0])).T
    x[:, :-1] = ln_spots
    np.log(spots @ weights, out=x[:, -1])
    return x


def _run_block(
    market: CalibratedMarket,
    config: SimulationConfig,
    block_index: int,
    n_block: int,
    slice_steps: list[int],
):
    """Advance one block of paths; returns its records and its diagnostic sums.

    The records are the cross-sections and signed states at ``slice_steps``
    (for a date, the state in force on the step starting there; the last
    step's for the terminal date) and each path's mean-correlation level sum.
    The sums are the ``SimDiagnostics`` counts from ``n_solved`` on, in field
    order and exact in float64, then the level sum over the block.
    """
    rng = substream(config.seed, block_index)
    n = market.n_assets
    n_steps = market.n_steps
    weights = market.weights
    sums = np.zeros(6)
    ln_s = np.tile(np.log(market.spots0), (n_block, 1))
    slice_pos = {step: j for j, step in enumerate(slice_steps)}
    spot_rec = np.empty((len(slice_steps), n_block, n))
    state_rec = np.zeros((len(slice_steps), n_block))
    moff_sum = np.zeros(n_block)
    z = np.empty((n_block, 2 * n))  # step buffers, refilled in place
    inc = np.empty((n_block, n))

    forced = config.forced_state is not None
    if forced:
        u0, k0 = config.forced_state
        u = np.full(n_block, float(u0))
        kappa = np.full(n_block, int(k0))
        signed = u if k0 == 1 else -u
        level = market.family.mean_correlation(u, kappa)

    for k in range(n_steps):
        t = float(market.times[k])
        dt = float(market.times[k + 1] - market.times[k])
        if k in slice_pos:
            spot_rec[slice_pos[k]] = np.exp(ln_s)
        if forced:
            vols = market.local_vol_row(t, ln_s)
        else:
            s = np.exp(ln_s)
            vols = market.local_vol_row(t, _with_log_basket(ln_s, s, weights))
            vols, sigma_b = vols[:, :n], vols[:, n]
            terms = covariance_terms(s, vols, weights, sigma_b, market.family)
            sol = solve_state(terms, market.family)
            if config.bounds_policy == "strict" and sol.n_violations:
                raise BoundViolationError(
                    f"{sol.n_violations} dispersion bound violations at t = {t:.4f}"
                )
            u, kappa = sol.u, sol.kappa
            level = market.family.mean_correlation(u, kappa)
            sums += (n_block, np.count_nonzero(kappa), np.count_nonzero(sol.violated_high),
                     np.count_nonzero(sol.violated_low), np.count_nonzero(u >= U_MAX),
                     level.sum())
        for step in (k, n_steps):
            if step in slice_pos and (step == k or k == n_steps - 1):
                state_rec[slice_pos[step]] = signed if forced else sol.signed

        moff_sum += level
        rng.standard_normal(out=z)
        zc = market.family.draw(z, u, kappa)
        # ln_s += dlog_fwd - 0.5 vols^2 dt, then sqrt(dt) vols zc, in that rounding order
        np.square(vols, out=inc)
        inc *= 0.5
        inc *= dt
        np.subtract(market.dlog_fwd[k], inc, out=inc)
        ln_s += inc
        np.multiply(np.sqrt(dt), vols, out=inc)
        inc *= zc
        ln_s += inc

    if n_steps in slice_pos:
        spot_rec[slice_pos[n_steps]] = np.exp(ln_s)
    return (spot_rec, state_rec, moff_sum), sums


def _block_plan(config: SimulationConfig) -> list[int]:
    n_blocks = -(-config.n_paths // config.block_size)
    sizes = [config.block_size] * n_blocks
    sizes[-1] = config.n_paths - config.block_size * (n_blocks - 1)
    return sizes


def _map_blocks(worker, n_blocks: int, threads: int):
    """``worker(b)`` for every block, in block order.

    When a block raises, the blocks not yet started are cancelled before
    the error propagates, so a failing run stops after those in flight.
    """
    if threads == 1:
        return [worker(b) for b in range(n_blocks)]
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        return [f.result() for f in [pool.submit(worker, b) for b in range(n_blocks)]]
    finally:
        pool.shutdown(cancel_futures=True)


def _run_blocks(market: CalibratedMarket, config: SimulationConfig, slice_steps: list[int],
                reduce) -> tuple[list, SimDiagnostics]:
    """Each block's ``reduce(spot_rec, state_rec, moff_sum)`` in block order, and the diagnostics.

    ``reduce`` runs in the worker, so a block's records are dropped once
    reduced.  The diagnostic sums add up in block order.
    """
    sizes = _block_plan(config)

    def worker(b: int):
        records, sums = _run_block(market, config, b, sizes[b], slice_steps)
        return reduce(*records), sums

    outcomes = _map_blocks(worker, len(sizes), config.resolve_threads())
    total = np.zeros_like(outcomes[0][1])
    for _, sums in outcomes:
        total += sums
    fractions = total[1:] / max(total[0], 1.0)
    diag = SimDiagnostics(config.n_paths, market.n_steps, int(total[0]), *fractions.tolist())
    return [reduced for reduced, _ in outcomes], diag


# ----------------------------------------------------------------------
# public entry points


@dataclass(frozen=True)
class PathCube:
    """Simulated cross-sections at the recorded dates with state records.

    ``values`` is (n_paths, n_assets, n_dates).  ``state`` holds the
    signed correlation state in force on the step starting at each date
    (for the terminal date, the last step's state).
    """

    asset_ids: tuple
    weights: np.ndarray
    spots0: np.ndarray
    dates: tuple
    values: np.ndarray
    state: np.ndarray  # (n_paths, n_dates) signed
    path_mean_correlation: np.ndarray  # (n_paths,) trajectory average
    diagnostics: SimDiagnostics

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def basket(self, date_index: int = -1) -> np.ndarray:
        return self.values[:, :, date_index] @ self.weights


def _snap_slice_steps(market: CalibratedMarket, dates) -> tuple[list[int], list[float]]:
    steps = sorted({int(np.argmin(np.abs(market.times - t))) for t in dates})
    return steps, [float(market.times[k]) for k in steps]


def simulate(
    market: CalibratedMarket,
    config: SimulationConfig | None = None,
    *,
    dates=None,
) -> PathCube:
    """Run all paths, recording the cross-section at the given dates.

    Dates snap to the nearest step boundary; the default records only
    the horizon.  Memory is paths x assets x dates, so keep the date
    list short for large runs and use :func:`price_european` when only
    terminal payoffs matter.
    """
    config = config or SimulationConfig()
    slice_steps, snapped = _snap_slice_steps(market, dates if dates is not None else [market.horizon])
    results, diag = _run_blocks(market, config, slice_steps, lambda *records: records)
    values = np.concatenate([r[0] for r in results], axis=1)  # (dates, paths, assets)
    state = np.concatenate([r[1] for r in results], axis=1)
    moff = np.concatenate([r[2] for r in results])
    return PathCube(
        asset_ids=market.asset_ids,
        weights=market.weights,
        spots0=market.spots0,
        dates=tuple(snapped),
        values=np.moveaxis(values, 0, 2),
        state=state.T,
        path_mean_correlation=moff / market.n_steps,
        diagnostics=diag,
    )


def _payoff_values(spec: PayoffSpec, spots: np.ndarray, market: CalibratedMarket) -> np.ndarray:
    k = spec.strike
    if spec.kind in ("index_call", "index_put"):
        level = spots @ market.weights
        gap = level - k if spec.kind == "index_call" else k - level
        return np.maximum(gap, 0.0)
    if spec.kind in ("asset_call", "asset_put"):
        try:
            col = market.asset_ids.index(spec.asset_id)
        except ValueError:
            raise PricingError(f"payoff references unknown asset {spec.asset_id!r}") from None
        level = spots[:, col]
        gap = level - k if spec.kind == "asset_call" else k - level
        return np.maximum(gap, 0.0)
    perf = spots / market.spots0[None, :]
    if spec.kind == "worst_of_put":
        return np.maximum(k - perf.min(axis=1), 0.0)
    return np.maximum(perf.max(axis=1) - k, 0.0)


def price_european(
    market: CalibratedMarket,
    payoffs: list[PayoffSpec],
    config: SimulationConfig | None = None,
) -> tuple[list[PriceResult], SimDiagnostics]:
    """Price European payoffs at the calibration horizon, streaming blocks.

    Every payoff y is averaged against one control, x = B_T / E[B_T] - 1
    with B_T the terminal basket: the log-Euler step adds the exact
    forward increment, so E[B_T] is known exactly and E[x] = 0.  With
    beta = Cov(x, y) / Var(x) from the same paths, the price is
    df (mean(y) - beta mean(x)) and the stderr is
    df sqrt((Var(y) - beta Cov(x, y)) / N) (Glasserman, *Monte Carlo
    Methods in Financial Engineering*, 4.1).  Per-block sums of y, y^2,
    x, x^2 and xy are reduced in block order, so results do not depend
    on the thread count.
    """
    config = config or SimulationConfig()
    if not payoffs:
        raise PricingError("no payoffs given")
    basket_mean = float(market.weights @ (market.spots0 * np.exp(market.dlog_fwd.sum(axis=0))))

    def block_sums(spot_rec, *_):
        spots = spot_rec[0]
        x = spots @ market.weights / basket_mean - 1.0
        x_sum, x_sq = x.sum(), np.square(x).sum()
        rows = []
        for spec in payoffs:
            y = _payoff_values(spec, spots, market)
            rows.append((y.sum(), np.square(y).sum(), x_sum, x_sq, (x * y).sum()))
        return np.array(rows)

    blocks, diag = _run_blocks(market, config, [market.n_steps], block_sums)
    total = np.zeros((len(payoffs), 5))
    for sums in blocks:
        total += sums
    n_paths = config.n_paths
    my, myy, mx, mxx, mxy = (total / n_paths).T
    var_x = mxx - mx * mx
    cov = mxy - mx * my
    beta = np.divide(cov, var_x, out=np.zeros_like(cov), where=var_x > 0.0)  # 0 at one path
    mean = my - beta * mx
    var = np.maximum(myy - my * my - beta * cov, 0.0)
    df = market.snapshot.discount_curve.discount(market.horizon)
    results = [
        PriceResult(
            payoff=spec,
            price=float(df * mean[j]),
            stderr=float(df * np.sqrt(var[j] / n_paths)),
            n_paths=n_paths,
            df=float(df),
        )
        for j, spec in enumerate(payoffs)
    ]
    return results, diag


# ----------------------------------------------------------------------
# diagnostics on simulated cubes


def average_correlation(
    cube: PathCube,
    strike: float | None = None,
    kind: str | None = None,
) -> float:
    """Average pairwise correlation along the paths, in percent.

    Unconditional when ``strike`` is None.  With a strike (in terms of
    the initial basket level), paths are weighted by the indicator of
    finishing in the money: a put below the money, a call above, unless
    ``kind`` ("put" or "call") overrides that convention.
    """
    per_path = cube.path_mean_correlation
    if strike is None:
        return float(per_path.mean() * 100.0)
    basket0 = float(cube.spots0 @ cube.weights)
    terminal = cube.basket(-1)
    if kind is None:
        kind = "put" if strike <= 1.0 else "call"
    if kind not in ("put", "call"):
        raise PricingError(f"unknown conditioning kind {kind!r}")
    level = strike * basket0
    in_money = terminal < level if kind == "put" else terminal > level
    count = int(np.count_nonzero(in_money))
    if count == 0:
        return float("nan")
    return float(per_path[in_money].mean() * 100.0)


#: homothetic rays of the bounds preflight, as multiples of the forwards
_PROBE_MONEYNESS = np.linspace(0.5, 1.5, 21)
#: dates of the bounds preflight, evenly spaced up to the horizon
_PROBE_DATES = 20


def probe_bounds(market: CalibratedMarket) -> BoundsReport:
    """Dispersion bound check along deterministic homothetic rays.

    Scales every constituent to m times its forward, for m from 0.5 to
    1.5 in steps of 0.05, at 20 evenly spaced dates up to the horizon,
    and tests whether the index local variance target stays inside the
    reachable covariance band.  A cheap preflight before long runs; the
    per-step violation fraction in simulation diagnostics is the
    authoritative in-sample measure.
    """
    reports = []
    weights = market.weights
    dates = np.linspace(market.horizon / _PROBE_DATES, market.horizon, _PROBE_DATES)
    fwds = np.stack([market.snapshot.forward_curve(a).forward(dates) for a in market.asset_ids],
                    axis=1)
    for t, fwd in zip(dates, fwds):
        spots = _PROBE_MONEYNESS[:, None] * fwd[None, :]
        vols = market.local_vol_row(float(t), _with_log_basket(np.log(spots), spots, weights))
        terms = covariance_terms(spots, vols[:, :-1], weights, vols[:, -1], market.family)
        reports.append(check_dispersion_bounds(terms))
    return BoundsReport(
        n_checked=sum(r.n_checked for r in reports),
        n_low=sum(r.n_low for r in reports),
        n_high=sum(r.n_high for r in reports),
        worst_low=max(r.worst_low for r in reports),
        worst_high=max(r.worst_high for r in reports),
    )
