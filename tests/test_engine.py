"""Monte Carlo engine tests: calibration, simulation, pricing, diagnostics."""

import dataclasses

import numpy as np
import pytest

from localcorr.corrfam import CorrelationFamily
from localcorr.errors import BoundViolationError, EngineError, PricingError
from localcorr.lcm.engine import (
    THREADS_ENV,
    PayoffSpec,
    SimulationConfig,
    average_correlation,
    calibrate_market,
    price,
    price_european,
    probe_bounds,
    simulate,
)
from localcorr.marketdata.snapshot import IndexComposition, MarketSnapshot

from localcorr.marketdata.curves import RateCurve

from helpers import AS_OF, bisect_implied_vol, flat_quote, flat_snapshot, index_quote

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


def test_price_matches_cube_payoff_average():
    cfg = SimulationConfig(n_paths=6000, steps_per_year=25, seed=7)
    market = _two_asset_market(cfg)
    spec = PayoffSpec("index_call", 110.0)
    res, _ = price_european(market, [spec], cfg)
    cube = simulate(market, cfg)
    vals = np.maximum(cube.basket(-1) - 110.0, 0.0)
    df = res[0].df
    assert res[0].price == pytest.approx(df * vals.mean(), rel=1e-12)
    assert res[0].stderr == pytest.approx(
        df * vals.std() / np.sqrt(cfg.n_paths), rel=1e-10
    )


def test_price_wrapper_equals_two_step():
    cfg = SimulationConfig(n_paths=2000, steps_per_year=10, seed=9)
    specs = [("AAA", 100.0, 0.2), ("BBB", 120.0, 0.25)]
    snap = flat_snapshot(specs, [0.5, 0.5], 0.198)
    fam = CorrelationFamily(np.array([[1.0, 0.5], [0.5, 1.0]]))
    spec = [PayoffSpec("index_call", 110.0)]
    direct, _ = price(snap, fam, spec, 1.0, cfg)
    market = calibrate_market(snap, fam, 1.0, cfg)
    two_step, _ = price_european(market, spec, cfg)
    assert direct[0].price == two_step[0].price
    assert direct[0].stderr == two_step[0].stderr


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
    assert average_correlation(cube, strike=0.9, kind="call") == 50.0
    # nothing finishes below 30 percent of the initial level in a year
    assert np.isnan(average_correlation(cube, strike=0.3))
    with pytest.raises(PricingError):
        average_correlation(cube, strike=0.9, kind="digital")
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
    assert lo == average_correlation(cube, strike=0.85, kind="put")


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


def test_partial_last_block():
    cfg = SimulationConfig(n_paths=1000, steps_per_year=10, seed=21, block_size=300)
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
    with pytest.raises(BoundViolationError):
        report.require()


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
    assert report.fraction_violated == 0.0
    report.require()


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
    # local vol grids need at least one time and one spot
    for grid in [{"lv_times": 0}, {"lv_times": -3}, {"lv_spots": 0}, {"lv_spots": -1}]:
        with pytest.raises(EngineError, match="lv_times and lv_spots"):
            SimulationConfig(**grid)
    # a forced state needs a finite u >= 0 and a branch flag of 0 or 1
    for forced in [(np.nan, 1), (np.inf, 0), (-0.5, 1), (1.0, 2), (1.0, -1), (1.0,), "up"]:
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


def test_calibration_validation():
    cfg = SimulationConfig(n_paths=500, steps_per_year=5, seed=2)
    snap = flat_snapshot([("AAA", 100.0, 0.2), ("BBB", 120.0, 0.25)], [0.5, 0.5], 0.198)
    fam2 = CorrelationFamily(np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(EngineError):
        calibrate_market(snap, fam2, 0.0, cfg)
    fam3 = CorrelationFamily(np.full((3, 3), 0.5) + 0.5 * np.eye(3))
    with pytest.raises(EngineError):
        calibrate_market(snap, fam3, 1.0, cfg)
