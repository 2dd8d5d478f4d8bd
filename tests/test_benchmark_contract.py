"""The package names that the benchmark under ``perfbench/`` reads must exist.

``perfbench/tracing.py`` patches its trace targets by name and raises
``LookupError`` when a required one is gone, and ``perfbench/run.py``
reads the calibrated market's local vol surfaces.  These tests only read
``perfbench/``, so a rename breaks tier-1 instead of ``--trace 1``.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from localcorr import synth
from localcorr.corrfam import CorrelationFamily
from localcorr.errors import PricingError
from localcorr.lcm.engine import CalibratedMarket
from localcorr.marketdata import black

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_required_trace_targets_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    required = [t for t in tracing.TARGETS if t[5]]
    assert required
    for name, mod_name, cls_name, attr, _, _ in required:
        owner = importlib.import_module(mod_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
        assert owner is not None and owner.__dict__.get(attr) is not None, name
    mod_name, attr = tracing.SUBSTREAM_TARGET
    assert callable(getattr(importlib.import_module(mod_name), attr, None))


def test_calibrated_market_keeps_the_surfaces_the_benchmark_reads():
    fields = {f.name for f in dataclasses.fields(CalibratedMarket)}
    assert {"local_vols", "index_local_vol"} <= fields


def test_correlation_family_keeps_the_step_kernel_spans():
    """The draw and the mean-correlation level are the engine step's family calls."""
    for attr in ("draw", "mean_correlation"):
        assert callable(CorrelationFamily.__dict__.get(attr)), attr


def test_synth_prices_the_copula_once_per_maturity(monkeypatch):
    """``copula.copula_basket_call.calls`` counts one call per recipe maturity."""
    calls = []
    priced = synth.copula_basket_call

    def counted(*args, **kwargs):
        calls.append(args[2])
        return priced(*args, **kwargs)

    monkeypatch.setattr(synth, "copula_basket_call", counted)
    recipe = synth.SyntheticRecipe(
        assets=(synth.AssetRecipe("AAA", base_vol=0.2, skew=0.05),
                synth.AssetRecipe("BBB", spot=80.0, base_vol=0.26, skew=0.06),
                synth.AssetRecipe("CCC", spot=120.0, base_vol=0.23, skew=0.04)),
        correlation=0.45, generator="steepened", steepen=0.06, n_samples=4096,
    )
    synth.build_snapshot(recipe)
    assert calls == [float(t) for t in recipe.maturities]


def test_implied_vol_validates_once_per_call(monkeypatch):
    """Synth's Black inversions check their inputs once, not on every root-search step."""
    validated, priced = [], []
    checked, kernel = black._validate, black._black_call

    def counted_validate(*args):
        validated.append(args)
        return checked(*args)

    def counted_kernel(*args):
        priced.append(args)
        return kernel(*args)

    monkeypatch.setattr(black, "_validate", counted_validate)
    monkeypatch.setattr(black, "_black_call", counted_kernel)
    price = kernel(100.0, 120.0, 1.5, 0.27, 0.97)
    vol = black.implied_vol(price, 100.0, 120.0, 1.5, 0.97)
    assert abs(vol - 0.27) < 1e-12
    assert len(priced) > 5
    assert len(validated) == 1
    for bad in ((-100.0, 120.0, 1.5, 0.27), (100.0, 120.0, 1.5, float("nan"))):
        with pytest.raises(PricingError):
            black.black_call(*bad)
        with pytest.raises(PricingError):
            black.black_vega(*bad)
