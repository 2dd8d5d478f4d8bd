"""Reference benchmark for localcorr.

    python3 perfbench/run.py --workload steep5_book --seed 0 --seconds 20 --trace 0

Runs one workload in this process against the package under ``src/`` of
the checkout this file sits in.  ``--trace 0`` times closed-loop rounds of
setup then pricing for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` runs each round at one thread untraced and then traced, and
reports per-layer metrics.  Every check that fails counts as a failed
operation.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import os

# One BLAS thread: the engine's own worker threads are the only parallelism.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ast  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = 5  # setup and price samples per timed run, whatever --seconds says
MAX_LOOP_S = 100.0  # stop starting rounds after this, to exit within the time limit

# Config knobs and outputs that later versions of the package are free to delete;
# the benchmark must not depend on them (checked by ``knob_check``).
RETIRED_KNOBS = (
    "table_states", "table_shift", "track_simplified", "quantization_mismatch",
    "state_counts", "--states", "--shift",
)
CONFIG_FIELDS = ("n_paths", "steps_per_year", "seed", "n_threads", "forced_state")

END_TO_END = (
    ("setup_s", "s"),
    ("price_s", "s"),
    ("path_steps_per_s", "1/s"),
    ("wof_stderr", "price"),
    ("wof_eff", "1/price2/s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("marketdata.load_snapshot.s", "s"),
    ("marketdata.variance_view.s", "s"),
    ("marketdata.variance_view.calls", "count"),
    ("marketdata.negative_density", "count"),
    ("marketdata.strike_extrapolated", "count"),
    ("synth.build_snapshot.s", "s"),
    ("copula.copula_basket_call.s", "s"),
    ("copula.copula_basket_call.calls", "count"),
    ("dupire.calibrate_local_vol.s", "s"),
    ("dupire.calibrate_local_vol.calls", "count"),
    ("dupire.variance_clipped", "count"),
    ("dupire.numerator_floored", "count"),
    ("dupire.denominator_floored", "count"),
    ("dupire.time_slice.s", "s"),
    ("dupire.time_slice.calls", "count"),
    ("corrfam.build_table.s", "s"),
    ("corrfam.lookup_index.s", "s"),
    ("corrfam.lookup_index.calls", "count"),
    ("lcm.state.covariance_terms.s", "s"),
    ("lcm.state.covariance_terms.paths", "count"),
    ("lcm.state.solve_state.s", "s"),
    ("lcm.state.solve_state.paths", "count"),
    ("lcm.state.violation_frac", "ratio"),
    ("lcm.state.clamped_frac", "ratio"),
    ("lcm.engine.local_vol_row.s", "s"),
    ("lcm.engine.local_vol_row.calls", "count"),
    ("rng.standard_normal.s", "s"),
    ("rng.standard_normal.draws", "count"),
    ("lcm.engine.self.s", "s"),
    ("lcm.engine.cpu_util", "ratio"),
    ("lcm.engine.blocks", "count"),
    ("lcm.engine.price_1t_s", "s"),
    ("lcm.engine.price_traced_s", "s"),
    ("lcm.state.solve_state.share", "ratio"),
    ("lcm.state.covariance_terms.share", "ratio"),
    ("lcm.engine.local_vol_row.share", "ratio"),
    ("rng.standard_normal.share", "ratio"),
    ("corrfam.lookup_index.share", "ratio"),
    ("lcm.engine.self.share", "ratio"),
    ("setup.traced_s", "s"),
    ("trace.overhead_s", "s"),
)

PRICING_SPANS = ("lcm.engine.price_european", "lcm.engine.simulate")
# layers whose self time inside the pricing span is reported as a share of it
PRICING_LAYERS = (
    "lcm.state.solve_state", "lcm.state.covariance_terms", "lcm.engine.local_vol_row",
    "rng.standard_normal", "corrfam.lookup_index",
)
AMOUNT_METRICS = {
    "lcm.state.covariance_terms.paths": "lcm.state.covariance_terms",
    "lcm.state.solve_state.paths": "lcm.state.solve_state",
    "rng.standard_normal.draws": "rng.standard_normal",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "localcorr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}/localcorr")
    sys.path.insert(0, str(SRC))
    import localcorr

    if Path(localcorr.__file__).resolve().parent != (SRC / "localcorr").resolve():
        raise SystemExit(f"perfbench: imported localcorr from {localcorr.__file__}, not {SRC}")


class Ledger:
    """Attempted and failed operations; a failure is recorded and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, check):
        self.attempted += 1
        if not check.ok:
            self.failures.append(f"{check.name}: {check.detail}")

    def run(self, name, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # boundary: every operation's failure is counted
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


def knob_check():
    """Fail if benchmark code names a retired knob or passes another config field."""
    from workloads import Check

    found = []
    for path in sorted(HERE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "RETIRED_KNOBS" for t in node.targets):
                skip.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            names = []
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.append(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names += [k for k in RETIRED_KNOBS if k in node.value]
            elif isinstance(node, ast.Call):
                func = node.func
                callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if callee == "SimulationConfig":
                    if node.args:
                        found.append(f"{path.name}:{node.lineno} positional SimulationConfig")
                    found += [f"{path.name}:{node.lineno} SimulationConfig({k.arg}=)"
                              for k in node.keywords if k.arg not in CONFIG_FIELDS]
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in RETIRED_KNOBS]
    return Check("retired_knobs", not found, "; ".join(sorted(set(found))) or "none named")


def machine_record(threads: int) -> dict:
    import numpy
    import scipy

    def cache(level):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")):
            try:
                if (idx / "level").read_text().strip() == str(level):
                    return (idx / "size").read_text().strip()
            except OSError:
                return None
        return None

    model = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model, "nproc": os.cpu_count(), "l2": cache(2), "l3": cache(3),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": BLAS_THREADS, "engine_threads": threads,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, seed, seconds, threads, ledger, work_dir):
    """Closed loop of (setup, price) rounds; end-to-end metrics from their medians."""
    from workloads import Check, cli_thread_identity

    setup_s, price_s = [], []
    first = None
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        if time.perf_counter() - started > MAX_LOOP_S:
            break
        rounds += 1
        t0 = time.perf_counter()
        prepared = ledger.run("setup", workload.setup, seed, work_dir, threads)
        t1 = time.perf_counter()
        if prepared is None:
            continue
        setup_s.append(t1 - t0)
        t0 = time.perf_counter()
        raw = ledger.run("price", workload.price, prepared, seed, threads)
        t1 = time.perf_counter()
        if raw is None:
            continue
        price_s.append(t1 - t0)
        outcome = ledger.run("evaluate", workload.evaluate, prepared, raw)
        if outcome is None:
            continue
        for check in outcome.checks:
            ledger.check(check)
        if first is None:
            first = outcome
            if workload.cli_center:
                cli_check = ledger.run("cli", cli_thread_identity, prepared.snapshot,
                                       workload.cli_center, work_dir,
                                       workload.sim_seed + seed, threads)
                if cli_check is not None:
                    ledger.check(cli_check)
        else:
            ledger.check(Check("same_seed_identity", outcome.fingerprint == first.fingerprint,
                               f"round {rounds} against round 1"))
    if first is None or not setup_s:
        raise SystemExit(f"perfbench: no successful round; failures: {ledger.failures}")
    price_med = statistics.median(price_s)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "price_s": price_med,
        "path_steps_per_s": workload.n_paths * workload.n_steps / price_med,
        "wof_stderr": first.wof_stderr,
        "wof_eff": 1.0 / (first.wof_stderr ** 2 * price_med * threads),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "rounds": rounds,
        "price_samples_s": [round(v, 4) for v in price_s],
        "setup_samples_s": [round(v, 4) for v in setup_s],
        **{k: round(v, 6) for k, v in first.accuracy.items()},
    }
    return metrics, dict(END_TO_END), info


def _layer_values(tracer, prepared, outcome, price_root):
    """Per-layer metrics of one traced (setup, price) round."""
    from tracing import self_times

    spans = tracer.spans
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    amount: dict[str, int] = {}
    pricing_own: dict[str, float] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + own[s.span_id] / 1e9
        calls[s.name] = calls.get(s.name, 0) + 1
        amount[s.name] = amount.get(s.name, 0) + s.amount
        if s.root == price_root.span_id:
            pricing_own[s.name] = pricing_own.get(s.name, 0.0) + own[s.span_id] / 1e9
    price_wall = (price_root.end_ns - price_root.start_ns) / 1e9
    engine_self = own[price_root.span_id] / 1e9
    out = {}
    for name, _ in PER_LAYER:
        base, _, tail = name.rpartition(".")
        if name in AMOUNT_METRICS:
            out[name] = amount.get(AMOUNT_METRICS[name], 0)
        elif tail == "s" and base in total:
            out[name] = total[base]
        elif tail == "calls":
            out[name] = calls.get(base, 0)
        elif tail == "share" and base in PRICING_LAYERS:
            out[name] = pricing_own.get(base, 0.0) / price_wall
    out["lcm.engine.self.s"] = engine_self
    out["lcm.engine.self.share"] = engine_self / price_wall
    out["lcm.engine.price_traced_s"] = price_wall
    out["lcm.engine.blocks"] = calls.get("rng.substream", 0)
    snap = prepared.snapshot
    ids = list(snap.composition.ids) + [snap.index.asset_id]
    for key in ("negative_density", "strike_extrapolated"):
        out[f"marketdata.{key}"] = sum(snap.call_surface(a).counters.get(key, 0) for a in ids)
    lvs = list(prepared.market.local_vols) + [prepared.market.index_local_vol]
    for key in ("variance_clipped", "numerator_floored", "denominator_floored"):
        out[f"dupire.{key}"] = sum(lv.counters.get(key, 0) for lv in lvs)
    diag = outcome.diagnostics
    out["lcm.state.violation_frac"] = float(diag.violation_fraction)
    out["lcm.state.clamped_frac"] = float(diag.clamped_fraction)
    return out


def traced_run(workload, seed, seconds, threads, ledger, work_dir):
    """Rounds of: untraced setup and 1-thread pricing (plus a ``threads`` pricing for
    CPU utilisation), then the same setup and 1-thread pricing traced."""
    from tracing import Tracer
    from workloads import Check

    rounds = []
    spans_out = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        if time.perf_counter() - started > MAX_LOOP_S:
            break
        t0 = time.perf_counter()
        prepared = ledger.run("setup", workload.setup, seed, work_dir, 1)
        setup_plain = time.perf_counter() - t0
        if prepared is None:
            break
        t0 = time.perf_counter()
        raw1 = ledger.run("price", workload.price, prepared, seed, 1)
        price_plain = time.perf_counter() - t0
        if raw1 is None:
            break
        plain = ledger.run("evaluate", workload.evaluate, prepared, raw1)
        if plain is None:
            break
        for check in plain.checks:
            ledger.check(check)
        cpu_util = 1.0
        if threads > 1:
            c0, t0 = time.process_time(), time.perf_counter()
            raw_n = ledger.run("price", workload.price, prepared, seed, threads)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            cpu_util = cpu / (wall * threads)
            multi = raw_n and ledger.run("evaluate", workload.evaluate, prepared, raw_n)
            ledger.check(Check("thread_count_identity",
                               bool(multi) and multi.fingerprint == plain.fingerprint,
                               f"1 against {threads} threads"))
        tracer = Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            traced_prep = ledger.run("setup", tracer.call, "bench.setup", None,
                                     workload.setup, (seed, work_dir, 1), {})
            setup_traced = time.perf_counter() - t0
            traced_raw = traced_prep and ledger.run("price", workload.price, traced_prep, seed, 1)
        if not traced_raw:
            break
        traced = ledger.run("evaluate", workload.evaluate, traced_prep, traced_raw)
        ledger.check(Check("traced_identity",
                           bool(traced) and traced.fingerprint == plain.fingerprint,
                           "traced against untraced prices"))
        if not traced:
            break
        price_root = [s for s in tracer.spans
                      if s.name in PRICING_SPANS and s.parent is None][-1]
        values = _layer_values(tracer, traced_prep, traced, price_root)
        values["lcm.engine.cpu_util"] = cpu_util
        values["lcm.engine.price_1t_s"] = price_plain
        values["setup.traced_s"] = setup_traced
        values["trace.overhead_s"] = (
            setup_traced + values["lcm.engine.price_traced_s"] - setup_plain - price_plain)
        rounds.append(values)
        spans_out.append([s.as_dict() for s in tracer.spans])
        absent = tracer.absent
    if not rounds:
        raise SystemExit(f"perfbench: no successful traced round; failures: {ledger.failures}")
    metrics = {name: statistics.median(r.get(name, 0) for r in rounds) for name, _ in PER_LAYER}
    span_file = WORK / f"spans-{workload.name}-seed{seed}.json"
    span_file.write_text(json.dumps({"workload": workload.name, "seed": seed,
                                     "rounds": spans_out}))
    info = {"rounds": len(rounds), "absent_layers": absent,
            "span_file": str(span_file.relative_to(ROOT))}
    return metrics, dict(PER_LAYER), info


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}, "
                         f"expected one of {sorted(WORKLOADS)}")
    threads = max(1, min(workload.threads, os.cpu_count() or 1))
    ledger = Ledger()
    ledger.check(knob_check())
    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir()
    try:
        runner = traced_run if args.trace else timed_run
        metrics, units, info = runner(workload, args.seed, args.seconds, threads, ledger,
                                      work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"machine {json.dumps(machine_record(threads), sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed} paths {workload.n_paths} "
          f"steps {workload.n_steps} threads {threads} {json.dumps(info, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    failed = len(ledger.failures)
    print(f"metric fail_frac = {failed / ledger.attempted:.6g} ratio "
          f"({failed} of {ledger.attempted} operations)")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
