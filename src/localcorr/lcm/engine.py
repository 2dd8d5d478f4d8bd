"""Monte Carlo engine for the local correlation model.

Constituents follow their own local volatility dynamics; at every step
each path solves for the family state whose correlation matrix makes the
instantaneous basket variance match the index local variance at the
current basket level, and draws its normals exactly at that state: n
per path for one asset or an equicorrelated flat family, otherwise 2n
through two fixed Cholesky factors.  Index vanillas are then repriced
by construction, up to time discretisation and dispersion bound
violations, both of which are surfaced in diagnostics.

Every family member has a unit diagonal, so each asset's correlated
normal is N(0, 1) given the past whatever the state, and its sum over
the steps, the asset's driver, is exactly Brownian.  ``price_european``
regresses every payoff on the terminal basket and on Black-Scholes twins
driven by those drivers, all with exactly known means.

Paths run in fixed-size blocks, each with its own counter-based random
substream, and block results are reduced in block order.  Prices are
therefore bit-identical for a given seed no matter how many worker
processes execute the blocks (see ``_map_blocks``).

A block's per-step path arrays (log spots, increments, normals) have
shape (paths, assets) but are column-major, so each asset's paths are
contiguous and elementwise steps, per-path broadcasts and row sums run
over contiguous columns.  The generator still fills a row-major
(paths, normals) buffer, which is copied into the column-major one: every
normal keeps its (path, asset) slot, and the streams do not depend on the
layout.
"""
from __future__ import annotations

import multiprocessing
import os
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait

import numpy as np

from .._inputs import check_describable, is_integer
from ..corrfam import CorrelationFamily
from ..dupire import LocalVolGather, LocalVolSurface, calibrate_local_vol
from ..errors import BoundViolationError, EngineError, PricingError
from ..marketdata.black import black_call, black_put
from ..marketdata.snapshot import MarketSnapshot
from ..rng import substream
from .state import U_MAX, BoundsReport, check_dispersion_bounds, covariance_terms, solve_state

#: context of the block workers; None where the platform cannot fork, and
#: the blocks then run in-process
_FORK = (multiprocessing.get_context("fork")
         if "fork" in multiprocessing.get_all_start_methods() else None)

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

#: paths per block, the last one excepted; the block index keys each block's substream
_BLOCK_SIZE = 4096

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

    The paths run in blocks of a fixed ``_BLOCK_SIZE`` = 4,096, each on its
    own substream, so ``n_paths`` and ``seed`` fix every draw.
    ``bounds_policy`` decides what a dispersion bound violation does:
    "clamp" pins the state at the cap ``state.U_MAX`` and counts it,
    "strict" aborts the run.  ``n_threads`` counts the worker processes
    that run the path blocks (unset: ``LOCALCORR_THREADS``, else 1);
    results do not depend on it.  ``forced_state`` is a test hook fixing
    (u, kappa) for every step, bypassing the solver entirely; u lies in
    the solver's range [0, ``state.U_MAX``].  The counts and the seed
    must be integers in the int64 range; numpy integers pass and bools
    and floats do not.  Local vol is tabulated on the default grid of
    :func:`~localcorr.dupire.calibrate_local_vol`.
    """

    n_paths: int = 100_000
    steps_per_year: int = 100
    seed: int = 0
    n_threads: int | None = None
    bounds_policy: str = "clamp"
    forced_state: tuple[float, int] | None = None

    def __post_init__(self):
        for name in ("n_paths", "steps_per_year", "seed", "n_threads"):
            value = getattr(self, name)
            if not is_integer(value) and not (value is None and name == "n_threads"):
                raise EngineError(f"{name} must be an integer in the int64 range, got {value!r}")
        if self.n_paths < 1:
            raise EngineError("n_paths must be positive")
        if self.n_threads is not None and self.n_threads < 1:
            raise EngineError(f"n_threads must be at least 1, got {self.n_threads!r}")
        if self.steps_per_year < 1:
            raise EngineError("steps_per_year must be positive")
        if self.bounds_policy not in ("clamp", "strict"):
            raise EngineError(f"unknown bounds policy {self.bounds_policy!r}")
        if self.forced_state is not None:
            try:
                u0, k0 = self.forced_state
                ok = bool(0.0 <= u0 <= U_MAX) and k0 in (0, 1)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise EngineError(
                    f"forced_state must be (u, kappa) with u in [0, U_MAX = {U_MAX!r}] and "
                    f"kappa 0 or 1, got {self.forced_state!r}"
                )

    def resolve_threads(self) -> int:
        if self.n_threads is not None:
            return int(self.n_threads)
        env = os.environ.get(THREADS_ENV)
        if env:
            try:
                threads = int(env)
            except ValueError:
                threads = 0  # reported below, like a count under 1
            if threads < 1:
                raise EngineError(f"{THREADS_ENV} must be an integer of at least 1, got {env!r}")
            return threads
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
    variance_ratio: float  # residual variance of the estimator over the plain variance


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
    """Build local vol tables, the step grid and the forward increments.

    Every constituent and the index is tabulated on the default grid of
    :func:`~localcorr.dupire.calibrate_local_vol`; ``config`` sets only
    the steps per year.
    """
    config = config or SimulationConfig()
    if not 0.0 < horizon < np.inf:
        raise EngineError(f"horizon must be positive and finite, got {horizon!r}")
    ids = tuple(snapshot.composition.ids)
    if family.n_assets != len(ids):
        raise EngineError(f"family has {family.n_assets} assets, composition has {len(ids)}")
    n_steps = max(1, int(np.ceil(config.steps_per_year * horizon)))
    check_describable((n_steps + 1, len(ids)),
                      f"steps_per_year = {config.steps_per_year} at horizon {horizon!r}", EngineError)
    times = np.linspace(0.0, horizon, n_steps + 1)
    fwds = np.stack([snapshot.forward_curve(a).forward(times) for a in ids], axis=1)
    local_vols = [  # the constituents, then the index
        calibrate_local_vol(snapshot.call_surface(a), horizon)
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
    step's for the terminal date), each path's mean-correlation level sum,
    and each path's drivers: the sums over the steps of its correlated
    normals, one column per asset.
    The sums are the ``SimDiagnostics`` counts from ``n_solved`` on, in field
    order and exact in float64, then the level sum over the block.
    """
    rng = substream(config.seed, block_index)
    n = market.n_assets
    n_steps = market.n_steps
    weights = market.weights
    sums = np.zeros(6)
    # path arrays are column-major, each asset's paths contiguous; the log spots
    # are the leading columns of the local-vol query, whose last is the log basket
    query = np.empty((n_block, n + 1), order="F")
    ln_s = query[:, :n]
    ln_s[:] = np.log(market.spots0)
    slice_pos = {step: j for j, step in enumerate(slice_steps)}
    spot_rec = np.empty((len(slice_steps), n_block, n))
    state_rec = np.zeros((len(slice_steps), n_block))
    moff_sum = np.zeros(n_block)
    # step buffers, refilled in place; the generator fills z_rows row by row, so
    # every normal keeps its (path, normal) slot when copied into z
    z_rows = np.empty((n_block, market.family.n_normals))
    z = np.empty_like(z_rows, order="F")
    inc = np.empty((n_block, n), order="F")
    drivers = np.zeros((n_block, n), order="F")

    forced = config.forced_state is not None
    if forced:
        u0, k0 = config.forced_state
        u0 = float(u0)
        kappa = np.full(n_block, int(k0))
        lam = np.full(n_block, u0 * u0 / (1.0 + u0 * u0))
        level = market.family.mean_correlation(lam, kappa)
        signed = np.full(n_block, u0 if k0 == 1 else -u0)

    for k in range(n_steps):
        t = float(market.times[k])
        dt = float(market.times[k + 1] - market.times[k])
        if k in slice_pos:
            spot_rec[slice_pos[k]] = np.exp(ln_s)
        if forced:
            vols = market.local_vol_row(t, ln_s)
        else:
            s = np.exp(ln_s)
            np.log(s @ weights, out=query[:, n])
            vols = market.local_vol_row(t, query)
            vols, sigma_b = vols[:, :n], vols[:, n]
            terms = covariance_terms(s, vols, weights, sigma_b, market.family)
            sol = solve_state(terms, market.family)
            if config.bounds_policy == "strict" and sol.n_violations:
                raise BoundViolationError(
                    f"{sol.n_violations} dispersion bound violations at t = {t:.4f}"
                )
            lam, kappa, level = sol.lam, sol.kappa, sol.level
            sums += (n_block, np.count_nonzero(kappa), np.count_nonzero(sol.violated_high),
                     np.count_nonzero(sol.violated_low), np.count_nonzero(sol.clamped),
                     level.sum())
        for step in (k, n_steps):
            if step in slice_pos and (step == k or k == n_steps - 1):
                state_rec[slice_pos[step]] = signed if forced else sol.signed

        moff_sum += level
        rng.standard_normal(out=z_rows)
        z[...] = z_rows
        zc = market.family.draw(z, lam, kappa, level)
        drivers += zc
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
    return (spot_rec, state_rec, moff_sum, drivers), sums


def _serve(worker, conn) -> None:
    """Worker process loop: run each block index received and send back its outcome."""
    for b in iter(conn.recv, None):
        try:
            outcome = True, worker(b)
        except Exception as exc:
            outcome = False, exc
        conn.send(outcome)


def _map_blocks(worker, n_blocks: int, threads: int):
    """``worker(b)`` for every block, in block order, on ``min(threads, n_blocks)`` processes.

    The workers are forked, so ``worker`` reaches them without pickling:
    only block indices go out and block results come back.  The parent
    hands out one block at a time.  When a block raises, no other block
    is handed out, the workers still running are killed and the error
    re-raises here; a worker that dies raises ``EngineError`` naming its
    block.  Every worker is joined before this returns.  One worker, one
    block, a daemonic caller (which may not start processes) or a
    platform without ``fork`` run the blocks in-process.
    """
    n_workers = min(threads, n_blocks)
    if n_workers == 1 or _FORK is None or _FORK.current_process().daemon:
        return [worker(b) for b in range(n_blocks)]
    results = [None] * n_blocks
    pending = iter(range(n_blocks))
    workers, busy = [], {}  # busy: parent pipe end -> (process, block)

    def hand_out(proc, conn):
        b = next(pending, None)
        if b is not None:
            busy[conn] = proc, b
            conn.send(b)

    try:
        for _ in range(n_workers):
            conn, child_conn = _FORK.Pipe()
            proc = _FORK.Process(target=_serve, args=(worker, child_conn), daemon=True)
            proc.start()
            workers.append((proc, conn))
            child_conn.close()  # so the parent reads EOF once the worker is gone
            hand_out(proc, conn)
        while busy:
            for conn in wait(list(busy)):
                proc, b = busy.pop(conn)
                try:
                    ok, value = conn.recv()
                except EOFError:
                    proc.join()
                    raise EngineError(f"the worker process running block {b} died "
                                      f"(exit code {proc.exitcode})") from None
                if not ok:
                    raise value
                results[b] = value
                hand_out(proc, conn)
        for _, conn in workers:
            conn.send(None)
        return results
    except BaseException:
        for proc, _ in workers:
            proc.kill()
        raise
    finally:
        for proc, conn in workers:
            proc.join()
            conn.close()


def _run_blocks(market: CalibratedMarket, config: SimulationConfig, slice_steps: list[int],
                reduce) -> tuple[list, SimDiagnostics]:
    """Each block's ``reduce(spot_rec, state_rec, moff_sum, drivers)`` in block order; diagnostics.

    ``reduce`` runs in the worker, so a block's records are dropped once
    reduced.  The diagnostic sums add up in block order.
    """
    def worker(b: int):
        n_block = min(_BLOCK_SIZE, config.n_paths - b * _BLOCK_SIZE)
        records, sums = _run_block(market, config, b, n_block, slice_steps)
        return reduce(*records), sums

    n_blocks = -(-config.n_paths // _BLOCK_SIZE)
    outcomes = _map_blocks(worker, n_blocks, config.resolve_threads())
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
    if len(dates) == 0 or not np.all(np.isfinite(dates)):
        raise EngineError(f"record dates must be finite and at least one, got {list(dates)!r}")
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
    the horizon.  An empty list or a non-finite date raises
    ``EngineError``.  Memory is paths x assets x dates, so keep the date
    list short for large runs and use :func:`price_european` when only
    terminal payoffs matter.
    """
    config = config or SimulationConfig()
    slice_steps, snapped = _snap_slice_steps(market, dates if dates is not None else [market.horizon])
    check_describable((config.n_paths, market.n_assets, len(slice_steps)),
                      f"n_paths = {config.n_paths}", EngineError)
    results, diag = _run_blocks(market, config, slice_steps,
                                lambda spot_rec, state_rec, moff_sum, _drivers:
                                (spot_rec, state_rec, moff_sum))
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


#: the reported residual variance of a payoff y is at least this many eps E[y^2]
_RESOLUTION = 16.0
#: paths per partial sum of a block's moments
_CHUNK = 128


class _Controls:
    """Control variates of a payoff book, built once in the parent before any block runs.

    Every payoff y keeps the basket control x = B_T / E[B_T] - 1 and adds
    twin vanillas: calls (puts) on the lognormal twins
    P_i = g_i exp(sigma_i sqrt(T) Z_i - sigma_i^2 T / 2) of its assets, at
    its strike in performance units, each minus its Black mean.  Z_i is
    asset i's driver over sqrt(n_steps), g_i = F_i(T) / S_i(0) and sigma_i
    the snapshot's implied vol at (T, F_i(T)).  Worst-of, best-of and
    index payoffs take a twin on every asset, a single-asset payoff one on
    its own asset.  ``moments`` is the reduce that ``_run_blocks`` runs
    in the workers, one payoff at a time through one buffer per block;
    ``estimate`` combines the block sums in the parent.
    """

    def __init__(self, market: CalibratedMarket, payoffs: list[PayoffSpec]):
        n, horizon = market.n_assets, market.horizon
        self.market = market
        self.growth = np.exp(market.dlog_fwd.sum(axis=0))
        self.basket_mean = float(market.weights @ (market.spots0 * self.growth))
        surfaces = [market.snapshot.call_surface(a) for a in market.asset_ids]
        vols = np.array([cs.implied_vol(horizon, cs.forward(horizon)) for cs in surfaces])
        self.scale = vols * np.sqrt(horizon / market.n_steps)
        self.shift = 0.5 * np.square(vols) * horizon
        basket0 = float(market.weights @ market.spots0)
        # per payoff: its underlier's row in a block's table (basket, worst and best
        # performance, then each asset's spot), strike, call or put, twin assets, their
        # strike and their Black means
        self.plan = []
        for spec in payoffs:
            if spec.kind in ("asset_call", "asset_put"):
                try:
                    col = market.asset_ids.index(spec.asset_id)
                except ValueError:
                    raise PricingError(
                        f"payoff references unknown asset {spec.asset_id!r}") from None
                row, assets, k = 3 + col, slice(col, col + 1), spec.strike / market.spots0[col]
            elif spec.kind in ("index_call", "index_put"):
                row, assets, k = 0, slice(0, n), spec.strike / basket0
            else:
                row = 1 if spec.kind == "worst_of_put" else 2
                assets, k = slice(0, n), spec.strike
            call = spec.kind.endswith("call")
            black = black_call if call else black_put
            twin_mean = black(self.growth[assets], k, horizon, vols[assets])
            self.plan.append((row, spec.strike, call, assets, k, twin_mean))
        #: moment rows of a payoff: 1, y, x, then its twins; zero-padded to the widest
        self.width = 3 + max(p[5].size for p in self.plan)

    def moments(self, spot_rec, state_rec, moff_sum, drivers) -> np.ndarray:
        """One block's sums of a a' per payoff, a = (1, y, x, twins), shape (payoffs, w, w).

        Each sum adds ``_CHUNK``-path partial sums, so its rounding stays
        near that of pairwise summation, far under the resolution of
        ``estimate``.
        """
        market = self.market
        spots = spot_rec[0]
        n_block = spots.shape[0]
        n_pad = -(-n_block // _CHUNK) * _CHUNK  # zero columns add nothing to any sum
        under = np.empty((3 + market.n_assets, n_block))
        under[0] = spots @ market.weights
        under[3:] = spots.T
        perf = under[3:] / market.spots0[:, None]
        np.min(perf, axis=0, out=under[1])
        np.max(perf, axis=0, out=under[2])
        twin_under = (np.exp(drivers * self.scale - self.shift) * self.growth).T
        a = np.zeros((self.width, n_pad))  # rows 1, y, x, then each payoff's twins in turn
        a[0, :n_block] = 1.0
        a[2, :n_block] = under[0] / self.basket_mean - 1.0
        out = np.zeros((len(self.plan), self.width, self.width))
        for j, (row, strike, call, assets, k, twin_mean) in enumerate(self.plan):
            w = 3 + twin_mean.size
            y, twins = a[1, :n_block], a[3:w, :n_block]
            y[...] = under[row]
            twins[...] = twin_under[assets]
            for vals, at in ((y, strike), (twins, k)):
                if call:
                    vals -= at
                else:
                    np.subtract(at, vals, out=vals)
                np.maximum(vals, 0.0, out=vals)
            twins -= twin_mean[:, None]
            chunks = a[:w].reshape(w, -1, _CHUNK).swapaxes(0, 1)
            partial = np.moveaxis(chunks @ chunks.swapaxes(1, 2), 0, -1)
            out[j, :w, :w] = np.ascontiguousarray(partial).sum(axis=-1)
        return out

    def estimate(self, total: np.ndarray, n_paths: int):
        """Mean, residual variance and plain variance of each payoff from the summed moments.

        The residual variance Var(y) - beta' Cov(c, y) subtracts moments of
        size E[y^2], so rounding leaves it uncertain by a few eps E[y^2].  It
        is reported as at least ``_RESOLUTION`` eps E[y^2] and at most
        Var(y).  The floor binds only where the controls replicate the
        payoff, as a twin does a constituent vanilla under flat local vol.
        """
        moments = total / n_paths
        means = moments[:, 0, 1:]
        cov = moments[:, 1:, 1:] - means[:, :, None] * means[:, None, :]
        floors = _RESOLUTION * np.finfo(float).eps * moments[:, 1, 1]
        out = []
        for mean, c, floor in zip(means, cov, floors):
            # the min-norm fit gives controls of zero variance (padding, one path) no weight
            beta = np.linalg.lstsq(c[1:, 1:], c[1:, 0], rcond=None)[0]
            plain = max(c[0, 0], 0.0)
            resid = min(max(c[0, 0] - beta @ c[1:, 0], floor), plain)
            out.append((mean[0] - beta @ mean[1:], resid, plain))
        return out


def price_european(
    market: CalibratedMarket,
    payoffs: list[PayoffSpec],
    config: SimulationConfig | None = None,
) -> tuple[list[PriceResult], SimDiagnostics]:
    """Price European payoffs at the calibration horizon, streaming blocks.

    Every payoff y is regressed on a vector of controls c with known
    means (see ``_Controls``): the basket control x = B_T / E[B_T] - 1,
    exact because the log-Euler step adds the exact forward increment,
    and Black-Scholes twins of the payoff's assets, exact because each
    asset's driver is a Brownian motion under every correlation state.
    With beta = Cov(c)^+ Cov(c, y) from the same paths, the price is
    df (mean(y) - beta' mean(c)) and the stderr is
    df sqrt((Var(y) - beta' Cov(c, y)) / N) (Glasserman, *Monte Carlo
    Methods in Financial Engineering*, 4.1); ``variance_ratio`` is that
    residual variance over Var(y).  Per-block sums of c, y and their
    products are reduced in block order, so results do not depend on the
    worker count.  A payoff on an unknown asset raises ``PricingError``
    before any path is drawn.
    """
    config = config or SimulationConfig()
    if not payoffs:
        raise PricingError("no payoffs given")
    controls = _Controls(market, payoffs)
    blocks, diag = _run_blocks(market, config, [market.n_steps], controls.moments)
    total = np.zeros_like(blocks[0])
    for sums in blocks:
        total += sums
    n_paths = config.n_paths
    df = market.snapshot.discount_curve.discount(market.horizon)
    results = [
        PriceResult(
            payoff=spec,
            price=float(df * mean),
            stderr=float(df * np.sqrt(resid / n_paths)),
            n_paths=n_paths,
            df=float(df),
            variance_ratio=float(resid / plain) if plain > 0.0 else 1.0,
        )
        for spec, (mean, resid, plain) in zip(payoffs, controls.estimate(total, n_paths))
    ]
    return results, diag


# ----------------------------------------------------------------------
# diagnostics on simulated cubes


def average_correlation(cube: PathCube, strike: float | None = None) -> float:
    """Average pairwise correlation along the paths, in percent.

    Unconditional when ``strike`` is None.  With a strike (in terms of
    the initial basket level), paths are weighted by the indicator of
    finishing in the money: below the strike for a strike at or below 1
    (a put), above it otherwise (a call).
    """
    per_path = cube.path_mean_correlation
    if strike is None:
        return float(per_path.mean() * 100.0)
    level = strike * float(cube.spots0 @ cube.weights)
    terminal = cube.basket(-1)
    in_money = terminal < level if strike <= 1.0 else terminal > level
    if not in_money.any():
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
    and tests in one band check whether the index local variance target
    stays inside the reachable covariance band.  A cheap preflight before
    long runs; the per-step violation fraction in simulation diagnostics
    is the authoritative in-sample measure.
    """
    weights = market.weights
    dates = np.linspace(market.horizon / _PROBE_DATES, market.horizon, _PROBE_DATES)
    fwds = np.stack([market.snapshot.forward_curve(a).forward(dates) for a in market.asset_ids],
                    axis=1)
    spots = (_PROBE_MONEYNESS[None, :, None] * fwds[:, None, :]).reshape(-1, weights.size)
    query = np.column_stack([np.log(spots), np.log(spots @ weights)])
    vols = np.concatenate([market.local_vol_row(float(t), rows)
                           for t, rows in zip(dates, np.split(query, _PROBE_DATES))])
    terms = covariance_terms(spots, vols[:, :-1], weights, vols[:, -1], market.family)
    return check_dispersion_bounds(terms)
