"""Every name a ``localcorr`` module lists in ``__all__`` must exist.

A name deleted from its module but left in an ``__all__`` (or in an
``__init__`` re-export) would otherwise only fail on a star import.
"""

import importlib
import inspect
import pkgutil

import localcorr


def _modules():
    yield localcorr
    for info in pkgutil.walk_packages(localcorr.__path__, "localcorr."):
        yield importlib.import_module(info.name)


def test_every_all_entry_resolves():
    checked = 0
    for module in _modules():
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), f"{module.__name__}: duplicate __all__ entry"
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
            checked += 1
    assert checked > 50


def test_packages_re_export_nothing():
    """Each public name has one import path, the module that defines it."""
    for package in ("localcorr", "localcorr.lcm", "localcorr.marketdata"):
        module = importlib.import_module(package)
        public = {name for name, value in vars(module).items()  # __version__ starts with _
                  if not name.startswith("_") and not inspect.ismodule(value)}
        assert not public, f"{package} re-exports {sorted(public)}"
