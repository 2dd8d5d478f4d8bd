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

from localcorr.corrfam import CorrelationFamily
from localcorr.lcm.engine import CalibratedMarket

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
