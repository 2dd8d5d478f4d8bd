"""Tests for market snapshot assembly, validation, and JSON round trips."""

import datetime as dt
import json

import numpy as np
import pytest

from localcorr.errors import SnapshotError
from localcorr.marketdata.curves import RateCurve
from localcorr.marketdata.snapshot import (
    AssetQuote,
    IndexComposition,
    MarketSnapshot,
    load_snapshot,
    save_snapshot,
    snapshot_from_dict,
    snapshot_to_dict,
)

from helpers import AS_OF, flat_quote, flat_snapshot, index_quote


def _two_asset():
    return flat_snapshot(
        [("AAA", 100.0, 0.2), ("BBB", 80.0, 0.3)], [0.5, 0.5], index_vol=0.22
    )


def test_index_forward_is_weighted_sum():
    snap = _two_asset()
    for t in (0.2, 0.7, 1.0, 2.4):
        target = 0.5 * snap.forward_curve("AAA").forward(t) + 0.5 * snap.forward_curve("BBB").forward(t)
        assert abs(snap.forward_curve("IDX").forward(t) - target) < 1e-10 * target
        assert abs(snap.call_surface("IDX").forward(t) - target) < 1e-10 * target


def test_call_surfaces_share_the_snapshot_forward_curves():
    snap = _two_asset()
    for asset_id in ("AAA", "BBB", "IDX"):
        assert snap.call_surface(asset_id).forward_curve is snap.forward_curve(asset_id)


def test_weights_reconciled_to_index_spot():
    """A small basket vs index gap rescales the weights, a large one raises."""
    rc = RateCurve.flat(0.02)
    assets = (flat_quote("AAA", 100.0, 0.2, rc), flat_quote("BBB", 80.0, 0.3, rc))
    index = index_quote("IDX", 90.004, lambda t, k: 0.22, rc)
    snap = MarketSnapshot(
        as_of=AS_OF,
        discount_curve=rc,
        assets=assets,
        index=index,
        composition=IndexComposition(("AAA", "BBB"), np.array([0.5, 0.5])),
    )
    basket = float(snap.weights @ np.array([100.0, 80.0]))
    assert abs(basket - 90.004) < 1e-9

    index_far = index_quote("IDX", 92.0, lambda t, k: 0.22, rc)
    with pytest.raises(SnapshotError):
        MarketSnapshot(
            as_of=AS_OF,
            discount_curve=rc,
            assets=assets,
            index=index_far,
            composition=IndexComposition(("AAA", "BBB"), np.array([0.5, 0.5])),
        )


def test_duplicate_and_unknown_ids_rejected():
    rc = RateCurve.flat(0.02)
    a = flat_quote("AAA", 100.0, 0.2, rc)
    idx = index_quote("IDX", 100.0, lambda t, k: 0.2, rc)
    with pytest.raises(SnapshotError):
        MarketSnapshot(AS_OF, rc, (a, a), idx, IndexComposition(("AAA",), np.array([1.0])))
    with pytest.raises(SnapshotError):
        MarketSnapshot(AS_OF, rc, (a,), idx, IndexComposition(("ZZZ",), np.array([1.0])))
    with pytest.raises(SnapshotError):
        IndexComposition(("AAA", "AAA"), np.array([0.5, 0.5]))
    with pytest.raises(SnapshotError):
        IndexComposition(("AAA",), np.array([-1.0]))


def test_round_trip_through_dict():
    snap = _two_asset()
    raw = snapshot_to_dict(snap)
    back = snapshot_from_dict(raw)
    assert back.as_of == snap.as_of
    assert back.n_assets == 2
    assert np.allclose(back.weights, snap.weights)
    for aid in ("AAA", "BBB", "IDX"):
        for t in (0.5, 1.5):
            f0 = snap.forward_curve(aid).forward(t)
            f1 = back.forward_curve(aid).forward(t)
            assert abs(f0 - f1) < 1e-12 * f0
    vs0 = snap.asset("AAA").vol_surface
    vs1 = back.asset("AAA").vol_surface
    assert np.allclose(vs0.maturities, vs1.maturities)
    for r0, r1 in zip(vs0.vols, vs1.vols):
        assert np.allclose(r0, r1)


def test_round_trip_through_file(tmp_path):
    snap = _two_asset()
    path = tmp_path / "snap.json"
    save_snapshot(snap, path)
    back = load_snapshot(path)
    assert snapshot_to_dict(back) == snapshot_to_dict(snap)


def test_meta_passes_through():
    snap = _two_asset()
    snap.meta["generator"] = {"name": "unit-test"}
    raw = snapshot_to_dict(snap)
    back = snapshot_from_dict(raw)
    assert back.meta["generator"] == {"name": "unit-test"}


def test_schema_rejects_malformed_payloads(tmp_path):
    snap = _two_asset()
    raw = snapshot_to_dict(snap)
    broken = dict(raw)
    del broken["index"]
    with pytest.raises(SnapshotError):
        snapshot_from_dict(broken)
    bad_date = json.loads(json.dumps(raw))
    bad_date["as_of"] = "not-a-date"
    with pytest.raises(SnapshotError):
        snapshot_from_dict(bad_date)
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    with pytest.raises(SnapshotError):
        load_snapshot(path)


def test_unknown_asset_lookup_raises():
    snap = _two_asset()
    with pytest.raises(SnapshotError):
        snap.asset("NOPE")
    with pytest.raises(SnapshotError):
        snap.forward_curve("NOPE")


def test_many_asset_snapshot():
    """50 synthetic names assemble and reconcile cleanly."""
    rng = np.random.default_rng(13)
    spots = rng.uniform(20, 200, size=50)
    weights = rng.uniform(0.5, 2.0, size=50)
    weights = weights / weights.sum()
    specs = [(f"N{i:03d}", float(s), 0.25) for i, s in enumerate(spots)]
    level = float(np.dot(weights, spots))
    snap = flat_snapshot(specs, weights, index_vol=0.2, index_level=level)
    assert snap.n_assets == 50
    assert abs(snap.weights.sum() - 1.0) < 1e-12
    t = 1.0
    target = sum(w * snap.forward_curve(s[0]).forward(t) for w, s in zip(weights, specs))
    assert abs(snap.forward_curve("IDX").forward(t) - target) < 1e-8
