"""Monte Carlo engine tests: calibration, simulation, pricing, diagnostics."""

import dataclasses
import inspect
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from localcorr.copula import flat_correlation
from localcorr.corrfam import CorrelationFamily
from localcorr.dupire import _blend_rows, calibrate_local_vol
from localcorr.errors import BoundViolationError, EngineError, PricingError, SnapshotError
from localcorr.lcm import engine
from localcorr.lcm.engine import (
    THREADS_ENV,
    PayoffSpec,
    SimulationConfig,
    average_correlation,
    calibrate_market,
    price_european,
    probe_bounds,
    simulate,
)
from localcorr.lcm.state import U_MAX, BoundsReport, check_dispersion_bounds, covariance_terms
from localcorr.marketdata.snapshot import IndexComposition, MarketSnapshot

from localcorr.marketdata.curves import RateCurve
from localcorr.rng import substream
from localcorr.synth import AssetRecipe, SyntheticRecipe, build_snapshot

from helpers import (
    AS_OF,
    bisect_implied_vol,
    flat_quote,
    flat_snapshot,
    index_quote,
    quad_black_call,
)

# ---------------------------------------------------------------------------
# builders


def _two_asset_market(config, index_vol=None, vols=(0.2, 0.25), rho=0.5, horizon=1.0):
    """Flat two asset snapshot; default index vol is the flat copula level."""
    specs = [("AAA", 100.0, vols[0]), ("BBB", 120.0, vols[1])]
    w = np.array([0.5, 0.5])
    a = np.array([w[0] * 100.0 * vols[0], w[1] * 120.0 * vols[1]])
    basket0 = 110.0
    if index_vol is None:
        cov = a[0] ** 2 + a[1] ** 2 + 2.0 * rho * a[0] * a[1]
        index_vol = float(np.sqrt(cov) / basket0)
    snap = flat_snapshot(specs, w, index_vol)
    fam = CorrelationFamily(np.array([[1.0, rho], [rho, 1.0]]))
    return calibrate_market(snap, fam, horizon, config)


def _skewed_index_snapshot(rho=0.5, amp=0.015, width=0.4):
    """Flat constituents under an index smile that steepens on the downside."""
    rc = RateCurve.flat(0.02)
    specs = [("AAA", 100.0, 0.2), ("BBB", 95.0, 0.2), ("CCC", 105.0, 0.2)]
    w = np.full(3, 1.0 / 3.0)
    assets = tuple(flat_quote(aid, s, v, rc) for aid, s, v in specs)
    a = np.array([w[i] * specs[i][1] * specs[i][2] for i in range(3)])
    cov = float(a @ (np.full((3, 3), rho) + (1.0 - rho) * np.eye(3)) @ a)
    atm = np.sqrt(cov) / 100.0

    def vol_fn(t, k):
        x = np.log(k / (100.0 * np.exp(0.02 * t)))
        return atm - amp * np.tanh(x / width)

    index = index_quote("IDX", 100.0, vol_fn, rc)
    snap = MarketSnapshot(
        as_of=AS_OF,
        discount_curve=rc,
        assets=assets,
        index=index,
        composition=IndexComposition(tuple(s[0] for s in specs), w),
    )
    return snap, CorrelationFamily(np.full((3, 3), rho) + (1.0 - rho) * np.eye(3))


# ---------------------------------------------------------------------------
# pricing accuracy


def test_single_asset_reprices_flat_vanillas():
    """A one asset run is plain local vol GBM and must hit Black prices."""
    cfg = SimulationConfig(
        n_paths=60_000, steps_per_year=100, seed=11, forced_state=(0.0, 1)
    )
    snap = flat_snapshot([("AAA", 100.0, 0.2)], [1.0], 0.2)
    market = calibrate_market(snap, CorrelationFamily(np.eye(1)), 1.0, cfg)
    fwd = snap.forward_curve("AAA").forward(1.0)
    df = snap.discount_curve.discount(1.0)
    strikes = [70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0]
    payoffs = []
    for k in strikes:
        payoffs.append(PayoffSpec("index_call", k))
        payoffs.append(PayoffSpec("index_put", k))
    results, diag = price_european(market, payoffs, cfg)
    by_label = {r.payoff.label(): r.price for r in results}
    worst = 0.0
    for k in strikes:
        # measure on the out of the money side, then shift by parity
        if k <= fwd:
            call = by_label[f"index_put@{k:g}"] + df * (fwd - k)
        else:
            call = by_label[f"index_call@{k:g}"]
        iv = bisect_implied_vol(call, fwd, k, 1.0, df=df)
        worst = max(worst, abs(iv - 0.2))
    assert worst < 4e-3
    assert diag.n_paths == 60_000
    assert diag.violation_fraction == 0.0


def _hand_log_euler_cube(market, cfg, block_sizes):
    """A plain log-Euler loop on ``substream(seed, b).standard_normal((n_block, n))``
    per block and step, recording the 0.5 y and 1 y cross-sections."""
    blocks = []
    for b, n_block in enumerate(block_sizes):
        rng = substream(cfg.seed, b)
        ln_s = np.tile(np.log(market.spots0), (n_block, 1))
        rec = []
        for k in range(market.n_steps):
            if k == market.n_steps // 2:  # the 0.5 y date
                rec.append(np.exp(ln_s))
            t, dt = float(market.times[k]), float(market.times[k + 1] - market.times[k])
            vols = market.local_vol_row(t, ln_s)
            z = rng.standard_normal((n_block, market.n_assets))
            ln_s = ln_s + (market.dlog_fwd[k] - np.square(vols) * 0.5 * dt)
            ln_s = ln_s + np.sqrt(dt) * vols * z
        blocks.append(np.stack([*rec, np.exp(ln_s)], axis=2))
    return np.concatenate(blocks)


@pytest.mark.parametrize("threads", [1, 2])
def test_one_asset_stream_is_one_normal_per_step(threads, monkeypatch):
    """A forced one-asset run is a plain log-Euler loop on one normal per path and step,
    read from each block's substream in order, bit for bit."""
    monkeypatch.setattr(engine, "_BLOCK_SIZE", 300)
    cfg = SimulationConfig(n_paths=1000, steps_per_year=20, seed=23,
                           n_threads=threads, forced_state=(0.0, 1))
    snap = flat_snapshot([("AAA", 100.0, 0.2)], [1.0], 0.2)
    market = calibrate_market(snap, CorrelationFamily(np.eye(1)), 1.0, cfg)
    cube = simulate(market, cfg, dates=[0.5, 1.0])
    assert cube.dates == (0.5, 1.0)
    assert np.array_equal(cube.values, _hand_log_euler_cube(market, cfg, [300, 300, 300, 100]))
    assert np.all(cube.state == 0.0)
    assert np.all(cube.path_mean_correlation == 0.0)


@pytest.mark.parametrize("threads", [1, 2])
def test_identity_center_stream_keeps_every_normal_slot(threads, monkeypatch):
    """At the forced state (0, 1) an identity center draws x = z exactly, so a
    three-asset run is the plain log-Euler loop on the block's row-major
    (paths, assets) normals, bit for bit: every normal keeps its slot in the
    engine's column-major arrays, and distinct vols make a moved slot show."""
    monkeypatch.setattr(engine, "_BLOCK_SIZE", 300)
    cfg = SimulationConfig(n_paths=1000, steps_per_year=20, seed=29,
                           n_threads=threads, forced_state=(0.0, 1))
    specs = [("AAA", 100.0, 0.2), ("BBB", 90.0, 0.3), ("CCC", 110.0, 0.45)]
    snap = flat_snapshot(specs, [0.3, 0.3, 0.4], 0.2)
    market = calibrate_market(snap, CorrelationFamily(np.eye(3)), 1.0, cfg)
    assert market.family.n_normals == 3
    cube = simulate(market, cfg, dates=[0.5, 1.0])
    assert np.array_equal(cube.values, _hand_log_euler_cube(market, cfg, [300, 300, 300, 100]))
    assert np.all(cube.state == 0.0)


def test_one_live_loading_prices_are_finite(monkeypatch):
    """Weights (1, 0) under flat:0.5 leave one live loading, so cov_up == diag
    on every path, where a ratio in rho' would be 0/0; prices stay finite."""
    monkeypatch.setattr(engine, "_BLOCK_SIZE", 1000)
    cfg = SimulationConfig(n_paths=2000, steps_per_year=20, seed=5)
    snap = flat_snapshot([("AAA", 100.0, 0.2), ("BBB", 100.0, 0.25)], [1.0, 0.0], 0.2)
    market = calibrate_market(snap, CorrelationFamily(flat_correlation(2, 0.5)), 1.0, cfg)
    payoffs = [PayoffSpec("index_call", 100.0), PayoffSpec("worst_of_put", 0.9),
               PayoffSpec("asset_call", 100.0, asset_id="BBB")]
    res, diag = price_european(market, payoffs, cfg)
    assert all(np.isfinite(r.price) and np.isfinite(r.stderr) for r in res)
    assert np.isfinite(diag.mean_correlation)


def test_worst_of_collapses_to_vanilla_for_one_asset():
    cfg = SimulationConfig(n_paths=4000, steps_per_year=25, seed=3, forced_state=(0.0, 1))
    snap = flat_snapshot([("AAA", 100.0, 0.2)], [1.0], 0.2)
    market = calibrate_market(snap, CorrelationFamily(np.eye(1)), 1.0, cfg)
    payoffs = [
        PayoffSpec("worst_of_put", 0.9),
        PayoffSpec("asset_put", 90.0, asset_id="AAA"),
        PayoffSpec("best_of_call", 1.05),
        PayoffSpec("asset_call", 105.0, asset_id="AAA"),
    ]
    res, _ = price_european(market, payoffs, cfg)
    # same paths, so the performance payoff is the vanilla divided by spot
    assert res[0].price == pytest.approx(res[1].price / 100.0, rel=1e-12)
    assert res[0].stderr == pytest.approx(res[1].stderr / 100.0, rel=1e-12)
    assert res[2].price == pytest.approx(res[3].price / 100.0, rel=1e-12)


def test_zero_weight_constituent_is_simulated_on_its_own_local_vol():
    """A zero weight is legal: the asset stays out of the basket and the state
    solve but is simulated, reprices its own vanilla and enters worst-ofs."""
    rho = 0.5
    specs = [("AAA", 100.0, 0.2), ("BBB", 100.0, 0.2), ("CCC", 90.0, 0.3)]
    index_vol = 0.2 * np.sqrt((1.0 + rho) / 2.0)  # the two live assets at the center
    snap = flat_snapshot(specs, [0.5, 0.5, 0.0], index_vol)
    fam = CorrelationFamily(np.full((3, 3), rho) + (1.0 - rho) * np.eye(3))
    cfg = SimulationConfig(n_paths=8000, steps_per_year=25, seed=3)
    market = calibrate_market(snap, fam, 1.0, cfg)
    fwd = snap.forward_curve("CCC").forward(1.0)
    payoffs = [
        PayoffSpec("asset_call", fwd, asset_id="CCC"),
        PayoffSpec("index_call", 100.0),
        PayoffSpec("worst_of_put", 0.9),
        PayoffSpec("best_of_call", 1.1),
    ]
    res, diag = price_european(market, payoffs, cfg)
    assert all(np.isfinite(r.price) and np.isfinite(r.stderr) for r in res)
    black = quad_black_call(fwd, fwd, 1.0, 0.3, df=snap.discount_curve.discount(1.0))
    assert abs(res[0].price - black) < 3.0 * res[0].stderr
    assert diag.violation_high_fraction == 0.0
    assert diag.violation_low_fraction == 0.0
    assert diag.clamped_fraction == 0.0
    with pytest.raises(SnapshotError, match="at least one positive weight"):
        IndexComposition(("AAA", "BBB", "CCC"), np.zeros(3))


def _basket_forward(market):
    """E[B_T] from the snapshot's forward curves."""
    snap = market.snapshot
    fwds = [snap.forward_curve(a).forward(market.horizon) for a in market.asset_ids]
    return float(np.dot(market.weights, fwds))


def _terminal_spots_and_drivers(market, cfg):
    """Every path's terminal spots and drivers, recorded through the engine's block map."""
    def record(spot_rec, _states, _levels, drivers):
        return spot_rec[0], drivers

    blocks, _ = engine._run_blocks(market, cfg, [market.n_steps], record)
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def _twins(market, drivers, assets, strike, call):
    """Centered Black-Scholes twin vanillas at a performance strike, one column per asset.

    Written from the definition: Z_i = drivers_i / sqrt(n_steps) is N(0, 1),
    the twin is F_i(T) / S_i(0) exp(vol sqrt(T) Z_i - vol^2 T / 2) with the
    snapshot's implied vol at the forward, and its mean is a quadrature price.
    """
    snap, horizon = market.snapshot, market.horizon
    cols = []
    for i in assets:
        cs = snap.call_surface(market.asset_ids[i])
        fwd, spot = cs.forward(horizon), snap.asset(market.asset_ids[i]).spot
        vol = float(cs.implied_vol(horizon, fwd))
        z = drivers[:, i] / np.sqrt(market.n_steps)
        twin = fwd / spot * np.exp(vol * np.sqrt(horizon) * z - 0.5 * vol * vol * horizon)
        mean = quad_black_call(fwd / spot, strike, horizon, vol)
        if not call:
            mean -= fwd / spot - strike
        cols.append(np.maximum(twin - strike if call else strike - twin, 0.0) - mean)
    return np.column_stack(cols)


def _cv_estimate(vals, spots, drivers, market, df, twins):
    """Regression-control price and stderr of payoff values, two-pass.

    ``twins`` is (assets, performance strike, call) of the payoff's twin
    vanillas; the basket control x = B_T / E[B_T] - 1 is always in.  The
    residual variance is kept within [16 eps E[y^2], Var(y)], the engine's
    resolution of it.
    """
    def mean(v):  # correctly rounded, so the oracle's own rounding stays far under the floor
        return math.fsum(v) / v.size

    x = spots @ market.weights / _basket_forward(market) - 1.0
    c = np.column_stack([x, _twins(market, drivers, *twins)])
    c_mean = np.array([mean(col) for col in c.T])
    dc, dy = c - c_mean, vals - mean(vals)
    cov_cy = np.array([mean(col * dy) for col in dc.T])
    cov_cc = np.array([[mean(a * b) for b in dc.T] for a in dc.T])
    beta = np.linalg.lstsq(cov_cc, cov_cy, rcond=None)[0]
    var_y = mean(dy * dy)
    floor = 16.0 * np.finfo(float).eps * mean(vals * vals)
    resid = min(max(var_y - beta @ cov_cy, floor), var_y)
    return df * (mean(vals) - beta @ c_mean), df * np.sqrt(resid / vals.size)


def test_price_matches_cube_payoff_average():
    cfg = SimulationConfig(n_paths=6000, steps_per_year=25, seed=7)
    market = _two_asset_market(cfg)
    spec = PayoffSpec("index_call", 110.0)
    res, _ = price_european(market, [spec], cfg)
    spots, drivers = _terminal_spots_and_drivers(market, cfg)
    vals = np.maximum(spots @ market.weights - 110.0, 0.0)
    df = res[0].df
    basket0 = float(market.weights @ market.spots0)
    want_price, want_stderr = _cv_estimate(vals, spots, drivers, market, df,
                                           ([0, 1], 110.0 / basket0, True))
    assert res[0].price == pytest.approx(want_price, rel=1e-12)
    assert res[0].stderr == pytest.approx(want_stderr, rel=1e-10)


# ---------------------------------------------------------------------------
# basket-forward control variate


_ALL_KINDS = [
    PayoffSpec("index_call", 110.0),
    PayoffSpec("index_put", 105.0),
    PayoffSpec("asset_call", 125.0, asset_id="BBB"),
    PayoffSpec("asset_put", 95.0, asset_id="AAA"),
    PayoffSpec("worst_of_put", 0.9),
    PayoffSpec("best_of_call", 1.1),
]


def test_control_variate_prices_affine_payoff_exactly():
    """A deep in-the-money index call is affine in the control, so the estimate
    is df (E[B_T] - K) and only rounding is left of its variance."""
    cfg = SimulationConfig(n_paths=6000, steps_per_year=25, seed=7)
    market = _two_asset_market(cfg)
    basket_fwd = _basket_forward(market)
    strike = 1e-6 * basket_fwd
    res, _ = price_european(market, [PayoffSpec("index_call", strike)], cfg)
    want = res[0].df * (basket_fwd - strike)
    assert res[0].price == pytest.approx(want, rel=1e-12)
    # Var(y) - beta Cov(x, y) cancels two moments of size mean(y)^2, so a few
    # ulp of that survive; the plain stderr is about 2.6e-3 of the price
    eps = np.finfo(float).eps
    assert res[0].stderr <= 8.0 * np.sqrt(eps / cfg.n_paths) * res[0].price


def test_control_variate_never_widens_the_plain_stderr():
    cfg = SimulationConfig(n_paths=6000, steps_per_year=25, seed=19)
    market = _two_asset_market(cfg)
    res, _ = price_european(market, _ALL_KINDS, cfg)
    spots, drivers = _terminal_spots_and_drivers(market, cfg)
    perf = spots / market.spots0
    basket = spots @ market.weights
    basket0 = float(market.weights @ market.spots0)
    plain_vals = [
        (np.maximum(basket - 110.0, 0.0), ([0, 1], 110.0 / basket0, True)),
        (np.maximum(105.0 - basket, 0.0), ([0, 1], 105.0 / basket0, False)),
        (np.maximum(spots[:, 1] - 125.0, 0.0), ([1], 125.0 / 120.0, True)),
        (np.maximum(95.0 - spots[:, 0], 0.0), ([0], 95.0 / 100.0, False)),
        (np.maximum(0.9 - perf.min(axis=1), 0.0), ([0, 1], 0.9, False)),
        (np.maximum(perf.max(axis=1) - 1.1, 0.0), ([0, 1], 1.1, True)),
    ]
    for r, (vals, twins) in zip(res, plain_vals):
        plain = r.df * vals.std() / np.sqrt(cfg.n_paths)
        assert 0.0 < r.stderr <= plain, r.payoff.label()
        want_price, want_stderr = _cv_estimate(vals, spots, drivers, market, r.df, twins)
        assert r.price == pytest.approx(want_price, rel=1e-12)
        assert r.stderr == pytest.approx(want_stderr, rel=1e-10)


def test_control_variate_with_one_path():
    cfg = SimulationConfig(n_paths=1, steps_per_year=10, seed=3)
    market = _two_asset_market(cfg)
    res, _ = price_european(market, _ALL_KINDS, cfg)
    cube = simulate(market, cfg)
    assert res[0].price == res[0].df * max(cube.basket(-1)[0] - 110.0, 0.0)
    for r in res:
        assert np.isfinite(r.price)
        assert r.stderr == 0.0


@pytest.mark.parametrize("n_paths", [4500, 1000])
def test_control_variate_is_thread_invariant(n_paths, monkeypatch):
    """Three blocks, then one block, at 1, 2 and 4 threads: fewer blocks than threads."""
    monkeypatch.setattr(engine, "_BLOCK_SIZE", 1500)
    cfg = SimulationConfig(n_paths=n_paths, steps_per_year=20, seed=43)
    market = _two_asset_market(cfg)
    runs = [price_european(market, _ALL_KINDS, dataclasses.replace(cfg, n_threads=t))
            for t in (1, 2, 4)]
    first = [(r.price, r.stderr) for r in runs[0][0]]
    for res, diag in runs[1:]:
        assert [(r.price, r.stderr) for r in res] == first
        assert diag.as_dict() == runs[0][1].as_dict()


@pytest.mark.parametrize("threads", [1, 2])
def test_each_payoff_depends_only_on_itself(threads):
    """The book whole, reversed and one payoff at a time give every payoff the same
    bits, over a full block and a padded partial one: the reduce shares one buffer
    between payoffs of different widths, and nothing of one payoff reaches another."""
    cfg = SimulationConfig(n_paths=6000, steps_per_year=20, seed=47, n_threads=threads)
    market = _two_asset_market(cfg)

    def bits(book):
        return [(r.price, r.stderr, r.variance_ratio) for r in price_european(market, book, cfg)[0]]

    whole = bits(_ALL_KINDS)
    assert bits(_ALL_KINDS[::-1]) == whole[::-1]
    assert [bits([spec])[0] for spec in _ALL_KINDS] == whole


_TWIN_BOOK = [
    PayoffSpec("index_call", 100.0),
    PayoffSpec("index_put", 90.0),
    PayoffSpec("worst_of_put", 0.95),
    PayoffSpec("best_of_call", 1.05),
    PayoffSpec("asset_call", 105.0, asset_id="BBB"),
]


@pytest.mark.parametrize("center, mode", [
    (flat_correlation(3, 0.5), None),
    (np.array([[1.0, 0.7, 0.2], [0.7, 1.0, 0.4], [0.2, 0.4, 1.0]]), None),
    (flat_correlation(3, 0.5), np.array([1.0, 1.5, 2.0])),
], ids=["equicorrelated", "matrix", "mode"])
def test_centered_twins_average_to_zero(center, mode):
    """Every family member has a unit diagonal, so each asset's driver is exactly
    Brownian whatever states its path takes, and each twin vanilla minus its Black
    mean averages to 0 within 4 stderrs.  The horizon is not one year, so a twin
    whose driver is scaled by T rather than sqrt(T) fails too."""
    snap, _ = _skewed_index_snapshot()
    cfg = SimulationConfig(n_paths=2**17, steps_per_year=8, seed=31)
    market = calibrate_market(snap, CorrelationFamily(center, mode), 0.5, cfg)
    controls = engine._Controls(market, _TWIN_BOOK)
    blocks, diag = engine._run_blocks(market, cfg, [market.n_steps], controls.moments)
    assert 0.0 < diag.kappa_up_fraction < 1.0  # the states move with the paths
    moments = np.sum(blocks, axis=0) / cfg.n_paths
    mean = moments[:, 0, 3:]
    second = np.diagonal(moments[:, 3:, 3:], axis1=1, axis2=2)
    live = second > 0.0  # a single-asset payoff's rows past its one twin are padding
    assert np.count_nonzero(live) == 4 * 3 + 1
    z = mean[live] / np.sqrt((second[live] - mean[live] ** 2) / cfg.n_paths)
    assert np.all(np.abs(z) < 4.0), z


# ---------------------------------------------------------------------------
# state dynamics


def test_comonotone_center_keeps_twin_assets_identical():
    """All ones center with equal assets: paths coincide and the state is 0."""
    cfg = SimulationConfig(n_paths=8192, steps_per_year=50, seed=5)
    snap = flat_snapshot([("AAA", 100.0, 0.2), ("BBB", 100.0, 0.2)], [0.5, 0.5], 0.2)
    market = calibrate_market(snap, CorrelationFamily(np.ones((2, 2))), 1.0, cfg)
    cube = simulate(market, cfg)
    assert np.max(np.abs(cube.state)) == 0.0
    assert np.array_equal(cube.values[:, 0, :], cube.values[:, 1, :])
    assert cube.diagnostics.violation_fraction == 0.0
    assert cube.diagnostics.clamped_fraction == 0.0
    assert cube.diagnostics.mean_correlation == 1.0
    assert average_correlation(cube) == 100.0


def test_forced_state_pins_correlation():
    cfg = SimulationConfig(n_paths=4000, steps_per_year=50, seed=13, forced_state=(0.0, 1))
    market = _two_asset_market(cfg)
    cube = simulate(market, cfg)
    assert np.all(cube.state == 0.0)
    assert np.all(cube.path_mean_correlation == 0.5)
    assert average_correlation(cube) == 50.0
    assert average_correlation(cube, strike=0.9) == 50.0
    # nothing finishes below 30 percent of the initial level in a year
    assert np.isnan(average_correlation(cube, strike=0.3))
    # forced runs bypass the solver, and the diagnostics say so
    assert cube.diagnostics.n_solved == 0
    assert cube.diagnostics.mean_correlation == 0.0

    down = dataclasses.replace(cfg, forced_state=(2.0, 0))
    cube_dn = simulate(market, down)
    assert np.all(cube_dn.state == -2.0)
    level = cube_dn.path_mean_correlation
    assert np.all(level == level[0])
    assert level[0] < 0.5
    member = market.family.evaluate(2.0, 0)
    assert abs(level[0] - member[~np.eye(2, dtype=bool)].mean()) < 1e-15


def test_downside_states_raise_correlation():
    """Steeper index skew pushes the solved state up when the basket falls."""
    cfg = SimulationConfig(n_paths=16_000, steps_per_year=50, seed=29)
    snap, fam = _skewed_index_snapshot()
    market = calibrate_market(snap, fam, 1.0, cfg)
    cube = simulate(market, cfg)
    assert cube.diagnostics.violation_fraction < 0.02
    fwd = 100.0 * np.exp(0.02)
    terminal = cube.basket(-1)
    state = cube.state[:, -1]
    assert state[terminal < fwd].mean() > state[terminal > fwd].mean() + 0.1
    lo = average_correlation(cube, strike=0.85)
    hi = average_correlation(cube, strike=1.15)
    mid = average_correlation(cube)
    assert lo > hi + 2.0
    assert lo > mid - 0.5 and mid > hi - 0.5


# ---------------------------------------------------------------------------
# determinism


def test_thread_count_does_not_change_results():
    cfg1 = SimulationConfig(n_paths=12_000, steps_per_year=50, seed=17, n_threads=1)
    cfg4 = dataclasses.replace(cfg1, n_threads=4)
    market = _two_asset_market(cfg1)
    payoffs = [
        PayoffSpec("index_call", 99.0),
        PayoffSpec("index_call", 110.0),
        PayoffSpec("index_put", 121.0),
        PayoffSpec("worst_of_put", 0.95),
    ]
    res1, diag1 = price_european(market, payoffs, cfg1)
    res4, diag4 = price_european(market, payoffs, cfg4)
    for a, b in zip(res1, res4):
        assert a.price == b.price
        assert a.stderr == b.stderr
    assert diag1.as_dict() == diag4.as_dict()
    cube1 = simulate(market, cfg1)
    cube4 = simulate(market, cfg4)
    assert np.array_equal(cube1.values, cube4.values)
    assert np.array_equal(cube1.state, cube4.state)


def test_simulate_across_worker_processes_keeps_every_bit():
    """Three blocks and two recorded dates at 1 and 2 workers: the same cube bits."""
    cfg = SimulationConfig(n_paths=10_000, steps_per_year=20, seed=19, n_threads=1)
    market = _two_asset_market(cfg, index_vol=0.24)
    cubes = []
    for threads in (1, 2):
        cubes.append(simulate(market, dataclasses.replace(cfg, n_threads=threads),
                              dates=[0.5, 1.0]))
        assert multiprocessing.active_children() == []
    one, two = cubes
    assert one.dates == two.dates == (0.5, 1.0)
    for name in ("values", "state", "path_mean_correlation"):
        a, b = getattr(one, name), getattr(two, name)
        assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
    assert one.diagnostics == two.diagnostics
    assert one.diagnostics.n_solved == 10_000 * 20


def test_simulate_and_price_report_one_set_of_diagnostics(monkeypatch):
    """Both entry points reduce the same blocks, at every thread count."""
    snap, fam = _skewed_index_snapshot(amp=0.06, width=0.3)
    fam = CorrelationFamily(fam.center, mode=np.array([1.0, 1.5, 0.8]))
    monkeypatch.setattr(engine, "_BLOCK_SIZE", 500)
    cfg = SimulationConfig(n_paths=2000, steps_per_year=20, seed=0)
    market = calibrate_market(snap, fam, 1.0, cfg)
    cubes = []
    for threads in (1, 2, 4):
        run = dataclasses.replace(cfg, n_threads=threads)
        cube = simulate(market, run)
        _, diag = price_european(market, [PayoffSpec("index_call", 100.0)], run)
        assert cube.diagnostics == diag
        cubes.append(cube)
    for cube in cubes[1:]:
        assert cube.diagnostics == cubes[0].diagnostics
        assert np.array_equal(cube.path_mean_correlation, cubes[0].path_mean_correlation)
    # every counter is exercised on this market
    diag = cubes[0].diagnostics
    assert diag.n_solved == 2000 * 20
    for value in (diag.kappa_up_fraction, diag.violation_high_fraction,
                  diag.violation_low_fraction, diag.clamped_fraction, diag.mean_correlation):
        assert 0.0 < value < 1.0


@pytest.mark.parametrize("mode", [(1.0, 1.5, 1.5), (1.0, 1.5, 0.8)],
                         ids=["two_groups", "per_asset"])
def test_mode_group_solve_keeps_every_bit_across_workers(mode, monkeypatch):
    """A family of two mode groups, or of a mode per asset, solved by Newton on the
    group forms, prices and simulates bit for bit alike at 1, 2 and 4 workers."""
    snap, fam = _skewed_index_snapshot(amp=0.06, width=0.3)
    fam = CorrelationFamily(fam.center, mode=np.array(mode))
    monkeypatch.setattr(engine, "_BLOCK_SIZE", 500)
    cfg = SimulationConfig(n_paths=1500, steps_per_year=20, seed=3)
    market = calibrate_market(snap, fam, 1.0, cfg)
    book = [PayoffSpec("index_call", 100.0), PayoffSpec("worst_of_put", 0.9)]
    runs = []
    for threads in (1, 2, 4):
        run = dataclasses.replace(cfg, n_threads=threads)
        res, diag = price_european(market, book, run)
        cube = simulate(market, run)
        runs.append(([(r.price, r.stderr) for r in res], diag, cube))
    prices, diag, cube = runs[0]
    assert 0.0 < diag.violation_fraction < 1.0
    for other_prices, other_diag, other_cube in runs[1:]:
        assert other_prices == prices and other_diag == diag
        assert np.array_equal(other_cube.values, cube.values)
        assert np.array_equal(other_cube.state, cube.state)
        assert np.array_equal(other_cube.path_mean_correlation, cube.path_mean_correlation)


def test_partial_last_block(monkeypatch):
    monkeypatch.setattr(engine, "_BLOCK_SIZE", 300)
    cfg = SimulationConfig(n_paths=1000, steps_per_year=10, seed=21)
    market = _two_asset_market(cfg)
    cube = simulate(market, cfg)
    assert cube.n_paths == 1000
    assert cube.values.shape == (1000, 2, 1)
    res, diag = price_european(market, [PayoffSpec("index_call", 110.0)], cfg)
    assert res[0].n_paths == 1000
    assert diag.n_solved == 1000 * 10


# ---------------------------------------------------------------------------
# recorded dates


def test_recorded_dates_snap_and_dedup():
    cfg = SimulationConfig(n_paths=2048, steps_per_year=100, seed=31)
    market = _two_asset_market(cfg)
    cube = simulate(market, cfg, dates=[0.25, 0.741, 1.0])
    assert cube.dates == (0.25, 0.74, 1.0)
    assert cube.values.shape == (2048, 2, 3)
    assert cube.state.shape == (2048, 3)
    terminal_only = simulate(market, cfg)
    assert terminal_only.dates == (1.0,)
    # recording extra dates does not disturb the draw stream
    assert np.array_equal(cube.values[:, :, -1], terminal_only.values[:, :, 0])
    merged = simulate(market, cfg, dates=[0.5, 0.5049])
    assert merged.dates == (0.5,)
    reordered = simulate(market, cfg, dates=[1.0, 0.25])
    assert reordered.dates == (0.25, 1.0)


@pytest.mark.parametrize("dates", [[], [np.nan], [np.inf], [-np.inf], [0.5, np.nan]])
def test_empty_or_non_finite_record_dates_raise(dates):
    """argmin over NaN or infinite gaps would record at t = 0, and no date would
    leave an empty cube, so both fail before any path runs."""
    cfg = SimulationConfig(n_paths=64, steps_per_year=10, seed=31)
    market = _two_asset_market(cfg)
    with pytest.raises(EngineError, match="record dates must be finite and at least one"):
        simulate(market, cfg, dates=dates)


@pytest.mark.parametrize("dates", [[-5.0, 0.5], [0.5, 7.0], [-1e-9], [1.0 + 1e-9]])
def test_record_dates_outside_the_horizon_raise(dates):
    """Snapping would move such a date to t = 0 or to the horizon without a word."""
    cfg = SimulationConfig(n_paths=64, steps_per_year=10, seed=31)
    market = _two_asset_market(cfg)
    with pytest.raises(EngineError, match=r"record dates must lie in \[0, 1.0\]"):
        simulate(market, cfg, dates=dates)


# ---------------------------------------------------------------------------
# dispersion bounds


def test_strict_bounds_policy_aborts():
    cfg = SimulationConfig(n_paths=2000, steps_per_year=10, seed=1, bounds_policy="strict")
    snap = flat_snapshot([("AAA", 100.0, 0.2), ("BBB", 100.0, 0.3)], [0.5, 0.5], 0.35)
    fam = CorrelationFamily(np.array([[1.0, 0.5], [0.5, 1.0]]))
    market = calibrate_market(snap, fam, 1.0, cfg)
    with pytest.raises(BoundViolationError):
        price_european(market, [PayoffSpec("index_call", 100.0)], cfg)
    clamp = dataclasses.replace(cfg, bounds_policy="clamp")
    _, diag = price_european(market, [PayoffSpec("index_call", 100.0)], clamp)
    assert diag.violation_high_fraction == 1.0
    assert diag.clamped_fraction == 1.0
    report = probe_bounds(market)
    assert report.n_high > 0
    assert report.worst_high > 0.5
    assert not report.ok


def test_failing_block_cancels_the_blocks_not_started():
    """Block 0 raises; only the blocks already in flight may start after it."""
    n_blocks, threads = 64, 2
    flags = multiprocessing.Array("b", n_blocks)  # shared with the forked workers

    def worker(b):
        flags[b] = 1
        if b == 0:
            raise BoundViolationError("block 0")
        time.sleep(60.0)  # stays in flight until the worker is stopped
        return b

    with pytest.raises(BoundViolationError, match="block 0"):
        engine._map_blocks(worker, n_blocks, threads)
    started = [b for b in range(n_blocks) if flags[b]]
    # each worker process can start one more block before block 0's error is read
    assert 0 in started and len(started) <= threads + 1
    assert multiprocessing.active_children() == []


def test_strict_violation_in_a_worker_reraises_with_its_message(monkeypatch):
    """Four blocks on two worker processes: the parent raises the worker's error."""
    monkeypatch.setattr(engine, "_BLOCK_SIZE", 500)
    cfg = SimulationConfig(n_paths=2000, steps_per_year=10, seed=1,
                           n_threads=2, bounds_policy="strict")
    snap = flat_snapshot([("AAA", 100.0, 0.2), ("BBB", 100.0, 0.3)], [0.5, 0.5], 0.35)
    market = calibrate_market(snap, CorrelationFamily(np.array([[1.0, 0.5], [0.5, 1.0]])),
                              1.0, cfg)
    with pytest.raises(BoundViolationError,
                       match=r"^500 dispersion bound violations at t = 0\.0000$"):
        price_european(market, [PayoffSpec("index_call", 100.0)], cfg)
    assert multiprocessing.active_children() == []


def test_dead_worker_raises_engine_error_naming_its_block(monkeypatch):
    run_block = engine._run_block

    def dying(market, config, b, *args):
        if b == 1:
            os._exit(3)
        return run_block(market, config, b, *args)

    monkeypatch.setattr(engine, "_run_block", dying)
    monkeypatch.setattr(engine, "_BLOCK_SIZE", 500)
    cfg = SimulationConfig(n_paths=2000, steps_per_year=10, seed=1, n_threads=2)
    market = _two_asset_market(cfg)
    with pytest.raises(EngineError, match=r"block 1 died \(exit code 3\)"):
        price_european(market, [PayoffSpec("index_call", 100.0)], cfg)
    assert multiprocessing.active_children() == []


def test_daemonic_caller_runs_the_blocks_in_process(monkeypatch):
    """A daemonic process may not start processes, so its blocks run in-process."""
    monkeypatch.setattr(engine, "_BLOCK_SIZE", 500)
    cfg = SimulationConfig(n_paths=2000, steps_per_year=10, seed=1, n_threads=2)
    market = _two_asset_market(cfg)
    payoffs = [PayoffSpec("index_call", 100.0), PayoffSpec("worst_of_put", 0.9)]
    want = price_european(market, payoffs, cfg)
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe()
    caller = ctx.Process(target=lambda: child_end.send(price_european(market, payoffs, cfg)),
                         daemon=True)
    caller.start()
    child_end.close()  # a caller that fails closes the pipe, and recv raises EOFError
    assert parent_end.poll(60.0)
    assert parent_end.recv() == want
    caller.join()
    assert multiprocessing.active_children() == []


def test_low_side_bound_violation_is_counted():
    cfg = SimulationConfig(n_paths=2000, steps_per_year=10, seed=1)
    snap = flat_snapshot([("AAA", 100.0, 0.2), ("BBB", 100.0, 0.3)], [0.5, 0.5], 0.10)
    fam = CorrelationFamily(np.array([[1.0, 0.5], [0.5, 1.0]]))
    market = calibrate_market(snap, fam, 1.0, cfg)
    _, diag = price_european(market, [PayoffSpec("index_call", 100.0)], cfg)
    assert diag.violation_low_fraction == 1.0
    assert diag.violation_high_fraction == 0.0
    report = probe_bounds(market)
    assert report.n_low > 0 and report.n_high == 0
    assert report.worst_low > 0.2


def test_probe_bounds_clean_inside_band():
    cfg = SimulationConfig(n_paths=1000, steps_per_year=10, seed=1)
    market = _two_asset_market(cfg, vols=(0.2, 0.2), index_vol=0.2 * np.sqrt(0.75))
    report = probe_bounds(market)
    assert report.ok
    assert report.n_checked == 21 * 20
    assert report.worst_low == 0.0 and report.worst_high == 0.0


def _probe_per_date(market):
    """The bounds probe as one band check per date, summed and maxed by hand: the reference."""
    dates = np.linspace(market.horizon / engine._PROBE_DATES, market.horizon,
                        engine._PROBE_DATES)
    reports = []
    for t in dates:
        fwd = np.array([market.snapshot.forward_curve(a).forward(t) for a in market.asset_ids])
        spots = engine._PROBE_MONEYNESS[:, None] * fwd[None, :]
        query = np.column_stack([np.log(spots), np.log(spots @ market.weights)])
        vols = market.local_vol_row(float(t), query)
        terms = covariance_terms(spots, vols[:, :-1], market.weights, vols[:, -1], market.family)
        reports.append(check_dispersion_bounds(terms))
    return BoundsReport(
        n_checked=sum(r.n_checked for r in reports),
        n_low=sum(r.n_low for r in reports),
        n_high=sum(r.n_high for r in reports),
        worst_low=max(r.worst_low for r in reports),
        worst_high=max(r.worst_high for r in reports),
    )


@pytest.mark.parametrize("mode", [None, (1.0, 1.5, 2.0)])
def test_probe_bounds_is_the_per_date_reduction(mode):
    """One band check over every ray and date reports what the per-date checks add up to."""
    center = np.array([[1.0, 0.4, 0.3], [0.4, 1.0, 0.5], [0.3, 0.5, 1.0]])
    recipe = SyntheticRecipe(
        assets=(AssetRecipe("AAA"), AssetRecipe("BBB", spot=80.0, base_vol=0.25),
                AssetRecipe("CCC", spot=120.0)),
        correlation=center.tolist(), weights=(0.5, 0.3, 0.2), generator="steepened",
        n_samples=1 << 14,
    )
    family = CorrelationFamily(center=center, mode=None if mode is None else np.array(mode))
    market = calibrate_market(build_snapshot(recipe), family, 2.5)
    report = probe_bounds(market)
    assert report.n_low > 0 and report.n_high > 0
    assert report == _probe_per_date(market)


# ---------------------------------------------------------------------------
# validation


def test_payoff_validation_and_labels():
    with pytest.raises(PricingError):
        PayoffSpec("asian_call", 100.0)
    with pytest.raises(PricingError):
        PayoffSpec("asset_call", 100.0)
    with pytest.raises(PricingError):
        PayoffSpec("index_call", 0.0)
    with pytest.raises(PricingError):
        PayoffSpec("worst_of_put", -0.5)
    assert PayoffSpec("index_call", 105.0).label() == "index_call@105"
    assert PayoffSpec("asset_put", 95.5, asset_id="AAA").label() == "asset_put[AAA]@95.5"
    assert PayoffSpec("worst_of_put", 0.9).label() == "worst_of_put@0.9"


@pytest.mark.parametrize("kind", ["index_call", "index_put", "worst_of_put", "best_of_call"])
def test_payoff_without_an_asset_rejects_an_asset_id(kind):
    with pytest.raises(PricingError, match=f"{kind} takes no asset_id, got 'AAA'"):
        PayoffSpec(kind, 0.9, asset_id="AAA")


def test_unknown_payoff_asset_raises_before_any_block_runs(monkeypatch):
    def never(*args):
        raise AssertionError("a block ran")

    monkeypatch.setattr(engine, "_run_block", never)
    cfg = SimulationConfig(n_paths=500, steps_per_year=5, seed=2)
    market = _two_asset_market(cfg)
    book = [PayoffSpec("index_call", 100.0), PayoffSpec("asset_put", 90.0, asset_id="ZZZ")]
    with pytest.raises(PricingError, match="unknown asset 'ZZZ'"):
        price_european(market, book, cfg)


def test_unknown_asset_and_empty_payoffs_raise():
    cfg = SimulationConfig(n_paths=500, steps_per_year=5, seed=2)
    market = _two_asset_market(cfg)
    with pytest.raises(PricingError):
        price_european(market, [], cfg)
    with pytest.raises(PricingError):
        price_european(market, [PayoffSpec("asset_call", 100.0, asset_id="ZZZ")], cfg)


def test_config_validation():
    with pytest.raises(EngineError):
        SimulationConfig(n_paths=0)
    with pytest.raises(EngineError):
        SimulationConfig(steps_per_year=0)
    with pytest.raises(EngineError):
        SimulationConfig(bounds_policy="retry")
    # a forced state needs u in the solver's range [0, U_MAX] and a branch flag of 0 or 1
    for forced in [(np.nan, 1), (np.inf, 0), (-0.5, 1), (1.0, 2), (1.0, -1), (1.0,), "up",
                   (1e160, 1), (2 * U_MAX, 0)]:
        with pytest.raises(EngineError):
            SimulationConfig(forced_state=forced)


def test_thread_resolution(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert SimulationConfig().resolve_threads() == 1
    monkeypatch.setenv(THREADS_ENV, "3")
    assert SimulationConfig().resolve_threads() == 3
    assert SimulationConfig(n_threads=2).resolve_threads() == 2
    monkeypatch.setenv(THREADS_ENV, "abc")
    with pytest.raises(EngineError):
        SimulationConfig().resolve_threads()
    monkeypatch.setenv(THREADS_ENV, "0")
    with pytest.raises(EngineError):
        SimulationConfig().resolve_threads()
    for bad in (0, -2):
        with pytest.raises(EngineError):
            SimulationConfig(n_threads=bad)


_COUNTS = ["n_paths", "steps_per_year", "seed", "n_threads"]
#: every settable value of the engine; the local vol grid and the block size are not
_CONFIG_FIELDS = [*_COUNTS, "bounds_policy", "forced_state"]
#: retired grid and block sizes, which the config must refuse whatever their value
_RETIRED = ["lv_times", "lv_spots", "block_size"]


def test_settable_surface_is_pinned():
    """A removed knob cannot come back unnoticed."""
    assert [f.name for f in dataclasses.fields(SimulationConfig)] == _CONFIG_FIELDS
    with pytest.raises(TypeError):
        SimulationConfig(lv_times=64)
    assert list(inspect.signature(average_correlation).parameters) == ["cube", "strike"]


@pytest.mark.parametrize("field", [*_COUNTS, *_RETIRED])
@pytest.mark.parametrize("value", [True, 2.5, 300.0, np.float64(4.0), "8",
                                   pytest.param(10**400, id="10**400")])
def test_counts_must_be_integers(field, value):
    if field in _RETIRED:
        with pytest.raises(TypeError):
            SimulationConfig(**{field: value})
        return
    with pytest.raises(EngineError, match=f"{field} must be an integer"):
        SimulationConfig(**{field: value})
    assert getattr(SimulationConfig(**{field: np.int64(3)}), field) == 3


def test_calibration_validation():
    cfg = SimulationConfig(n_paths=500, steps_per_year=5, seed=2)
    snap = flat_snapshot([("AAA", 100.0, 0.2), ("BBB", 120.0, 0.25)], [0.5, 0.5], 0.198)
    fam2 = CorrelationFamily(np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(EngineError):
        calibrate_market(snap, fam2, 0.0, cfg)
    fam3 = CorrelationFamily(np.full((3, 3), 0.5) + 0.5 * np.eye(3))
    with pytest.raises(EngineError):
        calibrate_market(snap, fam3, 1.0, cfg)


# ---------------------------------------------------------------------------
# local vol lookup


def test_local_vol_row_is_np_interp_bit_for_bit():
    """On a steepened five-asset market, every step reads np.interp's exact bits."""
    recipe = SyntheticRecipe(
        assets=(
            AssetRecipe("AAA", spot=100.0, base_vol=0.20, skew=0.05),
            AssetRecipe("BBB", spot=80.0, base_vol=0.26, skew=0.06),
            AssetRecipe("CCC", spot=120.0, base_vol=0.23, skew=0.04),
            AssetRecipe("DDD", spot=95.0, base_vol=0.30, skew=0.07),
            AssetRecipe("EEE", spot=105.0, base_vol=0.22, skew=0.05),
        ),
        correlation=0.45, generator="steepened", steepen=0.06, seed=9,
    )
    snap = build_snapshot(recipe)
    cfg = SimulationConfig(n_paths=1000, steps_per_year=100, seed=3)
    market = calibrate_market(snap, CorrelationFamily(center=flat_correlation(5, 0.45)), 1.0, cfg)
    surfaces = [*market.local_vols, market.index_local_vol]
    gen = np.random.default_rng(5)
    spots = market.spots0 * np.exp(gen.normal(0.0, 0.6, (256, 5)))
    spots[:4] *= np.array([[1e-9], [1e9], [0.02], [50.0]])  # beyond both grid edges
    ln_spots = np.log(spots)
    x = np.column_stack([ln_spots, np.log(spots @ market.weights)])
    for t in market.times:
        got = market.local_vol_row(t, x)
        assert np.array_equal(market.local_vol_row(t, ln_spots), got[:, :5])
        for c, lv in enumerate(surfaces):
            want = np.interp(x[:, c], lv.log_spots, _blend_rows(lv.times, lv.values, t))
            assert np.array_equal(got[:, c].view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("grid", [{"n_spots": 1}, {"n_times": 1}])
def test_single_node_local_vol_grids_price(grid, monkeypatch):
    """A hand-built market on one-node local vol grids prices through the gather's one-node rule."""
    monkeypatch.setattr(engine, "_BLOCK_SIZE", 500)
    cfg1 = SimulationConfig(n_paths=2000, steps_per_year=20, seed=41)
    cfg2 = dataclasses.replace(cfg1, n_threads=2)
    market = _two_asset_market(cfg1)
    surfaces = [calibrate_local_vol(market.snapshot.call_surface(a), market.horizon, **grid)
                for a in (*market.asset_ids, market.snapshot.index.asset_id)]
    assert all(1 in lv.values.shape for lv in surfaces)
    market = dataclasses.replace(market, local_vols=surfaces[:-1], index_local_vol=surfaces[-1])
    payoffs = [PayoffSpec("index_call", 110.0), PayoffSpec("worst_of_put", 0.9)]
    res1, diag1 = price_european(market, payoffs, cfg1)
    res2, diag2 = price_european(market, payoffs, cfg2)
    for a, b in zip(res1, res2):
        assert np.isfinite(a.price) and a.price > 0.0
        assert (a.price, a.stderr) == (b.price, b.stderr)
    assert diag1.as_dict() == diag2.as_dict()
