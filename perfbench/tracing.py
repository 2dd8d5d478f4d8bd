"""Outside-in tracing: spans around calls into each layer's public functions.

Nothing inside the package is edited.  ``Tracer.installed()`` replaces
module and class attributes with timing wrappers for the duration of a
``with`` block and restores the originals afterwards, so untraced runs
execute the unmodified code.  Targets that a later version of the package
no longer has are skipped and reported as absent layers.
"""
from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One timed call: name, interval in ns, the span that caused it, thread."""

    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    root: int
    thread: int
    amount: int

    def as_dict(self) -> dict:
        return {
            "id": self.span_id, "name": self.name, "start_ns": self.start_ns,
            "end_ns": self.end_ns, "parent": self.parent, "root": self.root,
            "thread": self.thread, "amount": self.amount,
        }


def _rows(args, kwargs, result):
    return int(len(args[0]))


def _state_paths(args, kwargs, result):
    return int(args[0].a.shape[0])


def _draws(args, kwargs, result):
    return int(result.size)


# (span name, module, class or None, attribute, amount function, required)
# Module attributes are patched where the caller looks them up: the engine
# and the synthetic generator import their collaborators by name.
TARGETS = (
    ("synth.build_snapshot", "localcorr.synth", None, "build_snapshot", None, True),
    ("copula.copula_basket_call", "localcorr.synth", None, "copula_basket_call", None, True),
    ("marketdata.save_snapshot", "localcorr.marketdata.snapshot", None, "save_snapshot",
     None, True),
    ("marketdata.load_snapshot", "localcorr.marketdata.snapshot", None, "load_snapshot",
     None, True),
    ("marketdata.variance_view", "localcorr.marketdata.surfaces", "CallSurface",
     "variance_view", None, True),
    ("lcm.engine.calibrate_market", "localcorr.lcm.engine", None, "calibrate_market", None, True),
    ("dupire.calibrate_local_vol", "localcorr.lcm.engine", None, "calibrate_local_vol",
     None, True),
    ("corrfam.build_table", "localcorr.lcm.engine", None, "build_table", None, False),
    ("corrfam.lookup_index", "localcorr.corrfam", "CholeskyTable", "lookup_index", None, False),
    ("dupire.time_slice", "localcorr.dupire", "LocalVolSurface", "time_slice", None, False),
    ("lcm.engine.price_european", "localcorr.lcm.engine", None, "price_european", None, True),
    ("lcm.engine.simulate", "localcorr.lcm.engine", None, "simulate", None, True),
    ("lcm.engine.local_vol_row", "localcorr.lcm.engine", "CalibratedMarket", "local_vol_row",
     None, True),
    ("lcm.state.covariance_terms", "localcorr.lcm.engine", None, "covariance_terms",
     _rows, True),
    ("lcm.state.solve_state", "localcorr.lcm.engine", None, "solve_state", _state_paths, True),
)

SUBSTREAM_TARGET = ("localcorr.lcm.engine", "substream")


class _TimedGenerator:
    """Proxy of a numpy Generator whose normal draws are recorded as spans."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._tracer.call(
            "rng.standard_normal", _draws, self._gen.standard_normal, args, kwargs,
        )

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name, amount_fn, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        root = self._local.root if stack else span_id
        if not stack:
            self._local.root = span_id
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
        amount = amount_fn(args, kwargs, result) if amount_fn else 1
        self.spans.append(Span(span_id, name, start, end, parent, root,
                               threading.get_ident(), amount))
        return result

    def _wrap(self, name, fn, amount_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, amount_fn, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_substream(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            gen = tracer.call("rng.substream", None, fn, args, kwargs)
            return _TimedGenerator(gen, tracer)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every resolvable target for the duration of the block."""
        undo = []
        absent = []
        try:
            for name, mod_name, cls_name, attr, amount_fn, required in TARGETS:
                owner = importlib.import_module(mod_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    if required:
                        raise LookupError(f"trace target {mod_name}.{cls_name or ''}.{attr} missing")
                    absent.append(name)
                    continue
                setattr(owner, attr, self._wrap(name, original, amount_fn))
                undo.append((owner, attr, original))
            mod = importlib.import_module(SUBSTREAM_TARGET[0])
            original = getattr(mod, SUBSTREAM_TARGET[1])
            setattr(mod, SUBSTREAM_TARGET[1], self._wrap_substream(original))
            undo.append((mod, SUBSTREAM_TARGET[1], original))
            self.absent = absent
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time covered by its direct children (ns)."""
    own = {s.span_id: s.end_ns - s.start_ns for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end_ns - s.start_ns
    return own

