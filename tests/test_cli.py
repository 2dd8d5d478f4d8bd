"""End-to-end command line tests through the click runner."""

import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import localcorr
from localcorr.cli import main
from localcorr.marketdata.snapshot import load_snapshot, save_snapshot
from localcorr.synth import AssetRecipe, SyntheticRecipe, recipe_to_dict

from helpers import flat_snapshot

MONEYNESS = tuple(np.round(np.arange(0.7, 1.301, 0.05), 10))


def _recipe_dict(**kwargs):
    assets = (
        AssetRecipe("AAA", spot=100.0, base_vol=0.2),
        AssetRecipe("BBB", spot=120.0, base_vol=0.25),
    )
    defaults = dict(
        assets=assets,
        correlation=0.3,
        seed=11,
        maturities=(0.5, 1.0, 1.5),
        moneyness=MONEYNESS,
    )
    defaults.update(kwargs)
    return recipe_to_dict(SyntheticRecipe(**defaults))


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    """Copula-consistent two asset snapshot generated through the CLI."""
    root = tmp_path_factory.mktemp("synth")
    recipe = root / "recipe.json"
    recipe.write_text(json.dumps(_recipe_dict()))
    res = _run(["--input", str(recipe), "--output-dir", str(root), "synth"])
    assert res.exit_code == 0, res.output
    return root / "snapshot.json"


@pytest.fixture(scope="module")
def steep_snapshot_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("steep")
    recipe = root / "recipe.json"
    recipe.write_text(json.dumps(_recipe_dict(generator="steepened", steepen=0.06)))
    res = _run(["--input", str(recipe), "--output-dir", str(root), "synth"])
    assert res.exit_code == 0, res.output
    return root / "snapshot.json"


# ---------------------------------------------------------------------------
# synth


def test_json_log_lines(tmp_path):
    """Under --log json every stderr line is one object with level, name and message."""
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(_recipe_dict(generator="steepened", steepen=0.06)))
    res = _run(["--input", str(recipe), "--output-dir", str(tmp_path), "--log", "json", "synth"])
    assert res.exit_code == 0, res.output
    lines = res.stderr.splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"level", "name", "message"}
    assert record == {"level": "info", "name": "localcorr",
                      "message": f"wrote {tmp_path / 'snapshot.json'}"}


def test_synth_outputs_and_manifest(snapshot_path):
    snap = load_snapshot(snapshot_path)
    assert snap.composition.ids == ("AAA", "BBB")
    manifest = json.loads((snapshot_path.parent / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 11
    recipe_bytes = (snapshot_path.parent / "recipe.json").read_bytes()
    assert manifest["input_digest"] == hashlib.sha256(recipe_bytes).hexdigest()
    assert len(manifest["config_digest"]) == 64
    assert isinstance(manifest["runtime_seconds"], float)
    assert manifest["version"]


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_writes_local_vol_grids(snapshot_path, tmp_path):
    res = _run([
        "--input", str(snapshot_path), "--output-dir", str(tmp_path),
        "calibrate", "--times", "16", "--spots", "41",
    ])
    assert res.exit_code == 0
    for asset_id in ("AAA", "BBB", "IDX"):
        header, rows = _read_csv(tmp_path / f"localvol_{asset_id}.csv")
        assert header == ["t", "spot", "local_vol"]
        assert len(rows) == 16 * 41
        vols = np.array([float(r[2]) for r in rows])
        assert np.all(vols > 0.0)
    # flat constituent surfaces calibrate back to their quoted level
    aaa = np.array([float(r[2]) for r in _read_csv(tmp_path / "localvol_AAA.csv")[1]])
    assert np.max(np.abs(aaa - 0.2)) < 1e-6


@pytest.mark.parametrize("grid", [["--times", "-3"], ["--times", "0"], ["--spots", "-3"],
                                  ["--spots", "0"]])
def test_calibrate_rejects_empty_grids(snapshot_path, tmp_path, grid):
    res = _run(["--input", str(snapshot_path), "--output-dir", str(tmp_path), "calibrate", *grid])
    assert res.exit_code == 1
    assert _error_payload(res)["error"]["type"] == "SurfaceError"
    assert not list(tmp_path.glob("localvol_*.csv"))


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_calibrate_rejects_non_positive_horizon(snapshot_path, tmp_path, horizon):
    res = _run(["--input", str(snapshot_path), "--output-dir", str(tmp_path), "calibrate",
                "--horizon", horizon, "--times", "3", "--spots", "3"])
    assert res.exit_code == 1
    assert _error_payload(res)["error"]["type"] == "SurfaceError"
    assert not list(tmp_path.glob("localvol_*.csv"))


@pytest.mark.parametrize("horizon", ["inf", "-inf", "nan"])
def test_calibrate_rejects_non_finite_horizon(snapshot_path, tmp_path, horizon):
    res = _run(["--input", str(snapshot_path), "--output-dir", str(tmp_path), "calibrate",
                "--horizon", horizon, "--times", "3", "--spots", "3"])
    assert res.exit_code == 1
    assert len(res.stderr.strip().splitlines()) == 1
    err = _error_payload(res)["error"]
    assert err["type"] == "SurfaceError"
    assert f"calibration horizon {float(horizon)!r} is not finite" in err["message"]
    assert not list(tmp_path.glob("localvol_*.csv"))
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("times", ["1", "3"])
@pytest.mark.parametrize("horizon", ["0.0005", "0.001"])
def test_calibrate_rejects_horizons_at_or_before_the_first_grid_time(
        snapshot_path, tmp_path, horizon, times):
    res = _run(["--input", str(snapshot_path), "--output-dir", str(tmp_path), "calibrate",
                "--horizon", horizon, "--times", times, "--spots", "3"])
    assert res.exit_code == 1
    err = _error_payload(res)["error"]
    assert err["type"] == "SurfaceError"
    assert "first local vol grid time 0.001" in err["message"]
    assert not list(tmp_path.glob("localvol_*.csv"))


# ---------------------------------------------------------------------------
# price


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_price_rejects_thread_counts_below_one(snapshot_path, tmp_path, threads):
    res = _run(["--input", str(snapshot_path), "--output-dir", str(tmp_path),
                "--threads", threads, "price", "--maturity", "1.0", "--paths", "1000",
                "--steps-per-year", "25"])
    assert res.exit_code == 1
    err = _error_payload(res)["error"]
    assert err["type"] == "EngineError"
    assert f"n_threads must be at least 1, got {threads}" in err["message"]
    assert not (tmp_path / "price.json").exists()


def test_price_json_is_identical_across_worker_processes(snapshot_path, tmp_path):
    """12,000 paths are three blocks, so 2 and 4 workers each run in worker processes."""
    blobs = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"t{threads}"
        res = _run(["--input", str(snapshot_path), "--output-dir", str(out), "--threads", threads,
                    "price", "--payoff", "worst-of-put", "--maturity", "1.0", "--paths", "12000",
                    "--steps-per-year", "10", "--strikes", "0.8,0.9"])
        assert res.exit_code == 0, res.output
        assert multiprocessing.active_children() == []
        blobs.append((out / "price.json").read_bytes())
    assert blobs[1] == blobs[0] and blobs[2] == blobs[0]
    payload = json.loads(blobs[0])
    assert payload["n_paths"] == 12000
    assert all(0.0 <= row["variance_ratio"] <= 1.0 for row in payload["results"])


def test_strict_violation_in_a_worker_process_fails_through_the_error_contract(tmp_path):
    """Index vol above the reachable band: the first step of every block violates."""
    snap = flat_snapshot([("AAA", 100.0, 0.2), ("BBB", 100.0, 0.3)], [0.5, 0.5], 0.35)
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    out = tmp_path / "out"
    res = _run(["--input", str(path), "--output-dir", str(out), "--threads", "2", "price",
                "--maturity", "1.0", "--paths", "12000", "--steps-per-year", "10",
                "--center", "flat:0.5", "--bounds-policy", "strict"])
    message = _assert_single_error(res, out, "price.json", "BoundViolationError")
    assert message == "4096 dispersion bound violations at t = 0.0000"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("maturity", ["0.0005", "0.001"])
def test_price_rejects_maturities_at_or_before_the_first_grid_time(
        snapshot_path, tmp_path, maturity):
    res = _run(["--input", str(snapshot_path), "--output-dir", str(tmp_path), "price",
                "--maturity", maturity, "--paths", "1000", "--steps-per-year", "25"])
    assert res.exit_code == 1
    err = _error_payload(res)["error"]
    assert err["type"] == "SurfaceError"
    assert "first local vol grid time 0.001" in err["message"]
    assert not (tmp_path / "price.json").exists()


def test_price_payload_and_thread_independence(snapshot_path, tmp_path):
    common = [
        "price", "--maturity", "1.0", "--paths", "4000", "--steps-per-year", "25",
        "--strikes", "0.9,1.0,1.1", "--center", "flat:0.3",
    ]
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    res1 = _run(["--input", str(snapshot_path), "--output-dir", str(out1),
                 "--threads", "1", *common])
    res4 = _run(["--input", str(snapshot_path), "--output-dir", str(out4),
                 "--threads", "4", *common])
    assert res1.exit_code == 0 and res4.exit_code == 0
    b1 = (out1 / "price.json").read_bytes()
    b4 = (out4 / "price.json").read_bytes()
    assert b1 == b4
    payload = json.loads(b1)
    assert payload["payoff"] == "index-call"
    assert payload["n_paths"] == 4000
    snap = load_snapshot(snapshot_path)
    for frac, row in zip((0.9, 1.0, 1.1), payload["results"]):
        assert row["strike_fraction"] == frac
        assert row["strike"] == pytest.approx(frac * snap.index.spot, rel=1e-12)
        assert row["price"] > 0.0
        assert row["stderr"] > 0.0
    assert 0.0 <= payload["diagnostics"]["violation_high_fraction"] <= 1.0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "price"
    assert manifest["input_digest"] == hashlib.sha256(
        snapshot_path.read_bytes()
    ).hexdigest()


def test_price_seed_override_and_worst_of_strikes(snapshot_path, tmp_path):
    res = _run([
        "--input", str(snapshot_path), "--output-dir", str(tmp_path), "--seed", "7",
        "price", "--maturity", "0.5", "--paths", "2000", "--steps-per-year", "10",
        "--payoff", "worst-of-put", "--strikes", "0.8,0.9", "--seed", "9",
    ])
    assert res.exit_code == 0
    payload = json.loads((tmp_path / "price.json").read_text())
    assert payload["seed"] == 9
    # worst-of strikes stay in performance units
    assert [r["strike"] for r in payload["results"]] == [0.8, 0.9]
    prices = [r["price"] for r in payload["results"]]
    assert prices[0] < prices[1]


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_reports_conditioned_averages(steep_snapshot_path, tmp_path):
    res = _run([
        "--input", str(steep_snapshot_path), "--output-dir", str(tmp_path),
        "diagnose", "--maturity", "1.0", "--paths", "6000", "--steps-per-year", "25",
        "--strikes", "0.8,1.0,1.2", "--center", "flat:0.3",
    ])
    assert res.exit_code == 0
    header, rows = _read_csv(tmp_path / "diagnose.csv")
    assert header == ["strike", "conditioning", "average_correlation_pct"]
    assert [r[0] for r in rows] == ["0.8", "1.0", "1.2", "all"]
    assert [r[1] for r in rows] == ["put", "put", "call", "none"]
    avg = {r[0]: float(r[2]) for r in rows}
    # steepened index skew concentrates correlation in the down states
    assert avg["0.8"] > avg["1.2"] + 1.0
    assert avg["1.2"] - 1.0 < avg["all"] < avg["0.8"] + 1.0


# ---------------------------------------------------------------------------
# dump-table and decode


def test_dump_table_spectral_floor(snapshot_path, tmp_path):
    res = _run([
        "--input", str(snapshot_path), "--output-dir", str(tmp_path),
        "dump-table", "--states", "21", "--center", "flat:0.3",
    ])
    assert res.exit_code == 0
    header, rows = _read_csv(tmp_path / "table.csv")
    assert header == ["state", "kappa", "min_eigenvalue"]
    assert len(rows) == 21
    states = np.array([float(r[0]) for r in rows])
    assert np.all(np.diff(states) > 0.0)
    assert np.all(np.array([float(r[2]) for r in rows]) >= -1e-10)
    # a symmetric grid around the center, whose smallest eigenvalue is 1 - rho
    assert abs(states[0] + states[-1]) < 1e-12
    assert states[10] == 0.0 and abs(float(rows[10][2]) - 0.7) < 1e-12
    # the top state pushes the blend weight u^2/(1+u^2) to the default reach
    assert states[-1] ** 2 / (1.0 + states[-1] ** 2) > 0.998


def test_decode_recovers_generator_correlation(snapshot_path, tmp_path):
    res = _run([
        "--input", str(snapshot_path), "--output-dir", str(tmp_path),
        "decode", "--maturity", "1.0", "--strikes", "0.9,1.0,1.1", "--rho", "0.3",
    ])
    assert res.exit_code == 0
    header, rows = _read_csv(tmp_path / "decode.csv")
    assert header == ["strike", "market_vol", "copula_vol"]
    assert len(rows) == 3
    for r in rows:
        # the market was generated from this copula, so the gap is noise
        assert abs(float(r[1]) - float(r[2])) < 2e-3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "decode"


# ---------------------------------------------------------------------------
# failure paths


def _error_payload(result):
    return json.loads(result.stderr.strip().splitlines()[-1])


def test_missing_input_fails_with_json_error(tmp_path):
    res = _run(["--output-dir", str(tmp_path), "synth"])
    assert res.exit_code == 1
    err = _error_payload(res)
    assert err["error"]["type"] == "RecipeError"
    assert "--input" in err["error"]["message"]


def test_unreadable_input_fails_cleanly(tmp_path):
    res = _run([
        "--input", str(tmp_path / "missing.json"), "--output-dir", str(tmp_path),
        "price", "--maturity", "1.0",
    ])
    assert res.exit_code == 1
    assert _error_payload(res)["error"]["type"] in ("FileNotFoundError", "OSError")


def test_bad_strike_list_fails(snapshot_path, tmp_path):
    res = _run([
        "--input", str(snapshot_path), "--output-dir", str(tmp_path),
        "price", "--maturity", "1.0", "--strikes", "a,b",
    ])
    assert res.exit_code == 1
    assert _error_payload(res)["error"]["type"] == "RecipeError"


def test_decode_rejects_tiny_sample_count(snapshot_path, tmp_path):
    res = _run([
        "--input", str(snapshot_path), "--output-dir", str(tmp_path),
        "decode", "--maturity", "1.0", "--samples", "100",
    ])
    assert res.exit_code == 1
    assert _error_payload(res)["error"]["type"] == "PricingError"


def test_bad_center_matrix_shape_fails(snapshot_path, tmp_path):
    bad = tmp_path / "corr.json"
    bad.write_text(json.dumps([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]]))
    res = _run([
        "--input", str(snapshot_path), "--output-dir", str(tmp_path),
        "price", "--maturity", "1.0", "--center", str(bad),
    ])
    assert res.exit_code == 1
    err = _error_payload(res)
    assert err["error"]["type"] == "RecipeError"
    assert "shape" in err["error"]["message"]


def _set_spot(raw, value):
    raw["assets"][0]["spot"] = value


def _set_vol(raw, value):
    raw["assets"][1]["vols"]["values"][0][2] = value


def _set_weight(raw, value):
    raw["composition"][0]["weight"] = value


def _set_rate(raw, value):
    raw["discount_curve"][0]["r"] = value


@pytest.mark.parametrize("corrupt, value, error", [
    (_set_spot, float("nan"), "SnapshotError"),
    (_set_vol, float("nan"), "SurfaceError"),
    (_set_weight, float("nan"), "SnapshotError"),
    (_set_rate, float("inf"), "CurveError"),
], ids=["nan-spot", "nan-vol", "nan-weight", "inf-rate"])
def test_non_finite_snapshot_fields_fail_at_load(snapshot_path, tmp_path, corrupt, value, error):
    raw = json.loads(snapshot_path.read_text())
    corrupt(raw, value)
    bad = tmp_path / "snapshot.json"
    bad.write_text(json.dumps(raw))  # writes the bare NaN / Infinity tokens json reads back
    res = _run([
        "--input", str(bad), "--output-dir", str(tmp_path), "price", "--maturity", "1.0",
    ])
    assert res.exit_code == 1
    assert _error_payload(res)["error"]["type"] == error
    assert not (tmp_path / "price.json").exists()


@pytest.mark.parametrize("matrix", [
    "[[1.0, NaN], [NaN, 1.0]]",  # off-diagonal
    "[[NaN, 0.2], [0.2, 1.0]]",  # diagonal only, symmetric as written
])
def test_non_finite_center_matrix_fails(snapshot_path, tmp_path, matrix):
    bad = tmp_path / "corr.json"
    bad.write_text(matrix)
    res = _run([
        "--input", str(snapshot_path), "--output-dir", str(tmp_path),
        "price", "--maturity", "1.0", "--center", str(bad),
    ])
    assert res.exit_code == 1
    err = _error_payload(res)
    assert err["error"]["type"] == "CorrelationError"
    assert "non-finite" in err["error"]["message"]
    assert not (tmp_path / "price.json").exists()


def _assert_single_error(res, out_dir, output, error):
    """Exit 1, one JSON error object on stderr, and neither the output nor the manifest."""
    assert res.exit_code == 1
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == error
    assert not (out_dir / output).exists()
    assert not (out_dir / "manifest.json").exists()
    return err["message"]


_SMALL_RUN = ["--paths", "500", "--steps-per-year", "10"]


@pytest.mark.parametrize("command, output, option, value, error", [
    ("price", "price.json", "--strikes", "nan", "RecipeError"),
    ("price", "price.json", "--strikes", "inf", "RecipeError"),
    ("diagnose", "diagnose.csv", "--strikes", "nan", "RecipeError"),
    ("diagnose", "diagnose.csv", "--strikes", "0.9,0", "RecipeError"),
    ("price", "price.json", "--maturity", "nan", "EngineError"),
    ("price", "price.json", "--maturity", "inf", "EngineError"),
    ("diagnose", "diagnose.csv", "--maturity", "nan", "EngineError"),
    ("diagnose", "diagnose.csv", "--maturity", "inf", "EngineError"),
])
def test_non_finite_strikes_and_maturities_fail(steep_snapshot_path, tmp_path, command, output,
                                                option, value, error):
    args = {"--maturity": "1.0", option: value}
    res = _run(["--input", str(steep_snapshot_path), "--output-dir", str(tmp_path), command,
                *_SMALL_RUN, *(tok for pair in args.items() for tok in pair)])
    message = _assert_single_error(res, tmp_path, output, error)
    assert value.split(",")[-1] in message


def _set_recipe(**fields):
    def corrupt(raw):
        raw.update(fields)
    return corrupt


def _set_asset(**fields):
    def corrupt(raw):
        raw["assets"][0].update(fields)
    return corrupt


@pytest.mark.parametrize("corrupt, named", [
    (_set_asset(spot="abc"), "'spot'"),
    (_set_asset(base_vol=True), "'base_vol'"),
    (_set_asset(asset_id=7), "'asset_id'"),
    (_set_recipe(seed="x"), "'seed'"),
    (_set_recipe(n_samples=4096.0), "'n_samples'"),
    (_set_recipe(correlation="abc"), "'correlation'"),
    (_set_recipe(correlation=[0.3, 0.3]), "'correlation'"),
    (_set_recipe(maturities="abc"), "'maturities'"),
    (_set_recipe(rate=True), "'rate'"),
    (_set_recipe(as_of=20240628), "'as_of'"),
    (_set_recipe(as_of="not-a-date"), "'as_of'"),
    (_set_recipe(correlation=[[1.0, 0.5], [0.5]]), "'correlation'"),
    (_set_recipe(correlation=[[1.0, 0.5, 0.0], [0.5, 1.0, 0.0]]), "'correlation'"),
    (_set_asset(spot=10**400), "'spot'"),  # no float value
    # counts past int64
    (_set_recipe(n_samples=10**400), "'n_samples'"),
    (_set_recipe(generator="lcm-ground-truth", generator_paths=10**400), "'generator_paths'"),
    (_set_recipe(generator="lcm-ground-truth", generator_steps=10**400), "'generator_steps'"),
], ids=["spot-str", "vol-bool", "id-int", "seed-str", "samples-float", "corr-str",
        "corr-vector", "maturities-str", "rate-bool", "as-of-int", "as-of-not-a-date",
        "corr-ragged", "corr-2x3", "spot-huge", "samples-huge", "paths-huge", "steps-huge"])
def test_recipe_fields_of_the_wrong_json_type_fail(tmp_path, corrupt, named):
    raw = _recipe_dict()
    corrupt(raw)
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(raw))
    res = _run(["--input", str(recipe), "--output-dir", str(tmp_path), "synth"])
    assert named in _assert_single_error(res, tmp_path, "snapshot.json", "RecipeError")


@pytest.mark.parametrize("corrupt, error, named", [
    (_set_recipe(n_samples=2**62), "PricingError", f"n_samples = {2**62} needs"),
    (_set_recipe(generator="lcm-ground-truth", generator_paths=2**62), "EngineError",
     f"n_paths = {2**62} needs"),
    (_set_recipe(generator="lcm-ground-truth", generator_steps=2**62), "EngineError",
     f"steps_per_year = {2**62} at horizon 1.5 needs"),
], ids=["samples", "paths", "steps"])
def test_recipe_counts_numpy_cannot_describe_fail(tmp_path, corrupt, error, named):
    """2**62 is refused by numpy at once; the run fails before allocating anything."""
    raw = _recipe_dict()
    corrupt(raw)
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(raw))
    res = _run(["--input", str(recipe), "--output-dir", str(tmp_path), "synth"])
    message = _assert_single_error(res, tmp_path, "snapshot.json", error)
    assert named in message and "more than numpy can describe" in message


def test_an_allocation_the_machine_cannot_hold_fails_through_the_error_contract(
        tmp_path, monkeypatch):
    """A count numpy can describe but memory cannot hold raises numpy's private
    MemoryError subclass; the run reports it as MemoryError and writes nothing."""

    class _ArrayMemoryError(MemoryError):
        pass

    def build_snapshot(recipe):
        raise _ArrayMemoryError("Unable to allocate 1.00 EiB for an array")

    monkeypatch.setattr("localcorr.cli.build_snapshot", build_snapshot)
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(_recipe_dict()))
    res = _run(["--input", str(recipe), "--output-dir", str(tmp_path), "synth"])
    message = _assert_single_error(res, tmp_path, "snapshot.json", "MemoryError")
    assert message == "Unable to allocate 1.00 EiB for an array"


_DELETE = object()


def _put(*keys, value):
    """Set the snapshot field at ``keys``, or delete it for ``_DELETE``."""
    def corrupt(raw):
        *parents, last = keys
        node = raw
        for key in parents:
            node = node[key]
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
        return raw
    return corrupt


@pytest.mark.parametrize("corrupt, named", [
    (_put("index", value=_DELETE), "missing field index"),
    (_put("assets", value=[]), "assets must be a non-empty list"),
    (_put("assets", 0, "spot", value="100"), "assets[0].spot"),
    (_put("assets", 0, "spot", value=True), "assets[0].spot"),
    (_put("assets", 0, "spot", value=10**400), "assets[0].spot"),  # no float value
    (_put("assets", 1, "id", value=""), "assets[1].id"),
    (_put("assets", 0, "vols", "strikes", 1, 2, value="abc"), "assets[0].vols.strikes"),
    (_put("composition", 1, value=0.5), "composition must be a non-empty list of objects"),
    (lambda raw: [raw], "snapshot must be an object"),
    (_put("generator", value="copula"), "generator must be an object"),
], ids=["no-index", "no-assets", "spot-str", "spot-bool", "spot-huge", "id-empty",
        "strike-str", "composition-number", "top-level-list", "generator-str"])
def test_snapshot_fields_of_the_wrong_json_type_fail(snapshot_path, tmp_path, corrupt, named):
    bad = tmp_path / "snapshot.json"
    bad.write_text(json.dumps(corrupt(json.loads(snapshot_path.read_text()))))
    res = _run(["--input", str(bad), "--output-dir", str(tmp_path), "price",
                "--maturity", "1.0", *_SMALL_RUN])
    assert named in _assert_single_error(res, tmp_path, "price.json", "SnapshotError")


@pytest.mark.parametrize("text, named", [
    ('{"assets": [{"asset_id": "AAA"', "not valid JSON"),  # truncated recipe
    ('{"matrix": [[1.0, 0.3], [0.3', "not valid JSON"),  # truncated center file
    ('"a"', "non-numeric"),
    ('[[1.0, "a"], ["a", 1.0]]', "non-numeric"),
    ('{"matrix": {"a": 1}}', "non-numeric"),
    ('[["1", "0.3"], ["0.3", "1"]]', "non-numeric"),
    ('[[true, 0.3], [0.3, true]]', "non-numeric"),
    (f'[[1, 1{"0" * 400}], [0.3, 1]]', "non-numeric"),  # an integer with no float value
    (f'[[1, 0.3], [0.3, 1{"0" * 5000}]]', "not valid JSON"),  # past Python's digit limit
], ids=["truncated-recipe", "truncated-center", "center-string", "center-strings",
        "center-object", "center-numeric-strings", "center-bools", "center-huge",
        "center-too-many-digits"])
def test_malformed_recipe_and_center_files_fail(snapshot_path, tmp_path, text, named):
    bad = tmp_path / "input.json"
    bad.write_text(text)
    if "assets" in text:
        res = _run(["--input", str(bad), "--output-dir", str(tmp_path), "synth"])
        output = "snapshot.json"
    else:
        res = _run(["--input", str(snapshot_path), "--output-dir", str(tmp_path), "price",
                    "--maturity", "1.0", *_SMALL_RUN, "--center", str(bad)])
        output = "price.json"
    message = _assert_single_error(res, tmp_path, output, "RecipeError")
    assert named in message
    assert "input.json" in message


@pytest.fixture(scope="module")
def one_asset_snapshot_path(tmp_path_factory):
    """Copula-consistent one asset snapshot generated through the CLI."""
    root = tmp_path_factory.mktemp("one-asset")
    recipe = root / "recipe.json"
    recipe.write_text(json.dumps(_recipe_dict(assets=(AssetRecipe("AAA", spot=100.0),))))
    res = _run(["--input", str(recipe), "--output-dir", str(root), "synth"])
    assert res.exit_code == 0, res.output
    return root / "snapshot.json"


def test_decode_one_asset_needs_a_given_rho(one_asset_snapshot_path, tmp_path):
    common = ["--input", str(one_asset_snapshot_path), "--output-dir", str(tmp_path),
              "decode", "--maturity", "1.0", "--samples", "8192"]
    message = _assert_single_error(_run(common), tmp_path, "decode.csv", "PricingError")
    assert "undefined for a one-asset basket" in message
    res = _run([*common, "--rho", "0.3"])
    assert res.exit_code == 0
    _, rows = _read_csv(tmp_path / "decode.csv")
    assert len(rows) == 6
    assert (tmp_path / "manifest.json").exists()


def test_cli_import_does_not_load_scipy_stats():
    """``scipy.stats`` is slow to import and only the copula's Sobol draw needs it,
    so loading the command line leaves it out."""
    src = str(Path(localcorr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, localcorr.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
