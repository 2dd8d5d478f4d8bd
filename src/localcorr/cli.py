"""Command-line interface: synth, decode, calibrate, price, diagnose, dump-table.

Every command reads one input file (a snapshot, or a recipe for synth),
writes its artifacts into the output directory and drops a run manifest
next to them.  Reruns with identical manifests produce byte-identical
primary outputs; wall-clock runtime lives only in the manifest.  Errors
print one machine-readable JSON object to stderr and exit nonzero.
"""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import __version__
from .copula import CopulaSpec, flat_correlation, skew_comparison
from .corrfam import CorrelationFamily
from .errors import CorrelationError, LocalCorrError, RecipeError
from .lcm.engine import (
    PayoffSpec,
    SimulationConfig,
    average_correlation,
    calibrate_market,
    price_european,
    simulate,
)
from .marketdata.snapshot import load_snapshot, save_snapshot
from .synth import build_snapshot, recipe_from_dict

log = logging.getLogger("localcorr")

_PAYOFF_NAMES = {
    "index-call": "index_call",
    "index-put": "index_put",
    "worst-of-put": "worst_of_put",
}


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record accompanying every command's outputs."""

    command: str
    config_digest: str
    seed: int
    input_digest: str
    version: str
    runtime_seconds: float

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "input_digest": self.input_digest,
            "version": self.version,
            "runtime_seconds": self.runtime_seconds,
        }


class _JsonLogHandler(logging.StreamHandler):
    def format(self, record):
        return json.dumps(
            {"level": record.levelname.lower(), "name": record.name,
             "message": record.getMessage()},
            sort_keys=True,
        )


def _setup_logging(fmt: str):
    root = logging.getLogger("localcorr")
    root.setLevel(logging.INFO)
    root.handlers.clear()
    if fmt == "json":
        root.addHandler(_JsonLogHandler(sys.stderr))
    else:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(handler)


def _digest_file(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _digest_config(params: dict) -> str:
    return hashlib.sha256(
        json.dumps(params, sort_keys=True, default=str).encode()
    ).hexdigest()


def _write_manifest(out_dir, command, params, seed, input_path, started):
    manifest = RunManifest(
        command=command,
        config_digest=_digest_config(params),
        seed=int(seed),
        input_digest=_digest_file(input_path),
        version=__version__,
        runtime_seconds=round(time.perf_counter() - started, 3),
    )
    path = out_dir / "manifest.json"
    with open(path, "w") as handle:
        json.dump(manifest.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    return value


def _parse_center(center: str, n: int) -> np.ndarray:
    """Resolve a --center argument: identity, flat:<rho>, or a JSON file."""
    if center == "identity":
        return np.eye(n)
    if center.startswith("flat:"):
        try:
            rho = float(center.split(":", 1)[1])
        except ValueError:
            raise RecipeError(f"bad flat correlation in --center {center!r}") from None
        return flat_correlation(n, rho)
    try:
        with open(center) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise RecipeError(f"cannot read correlation file {center!r}: {exc}") from exc
    mat = raw.get("matrix", raw) if isinstance(raw, dict) else raw
    arr = np.asarray(mat, dtype=float)
    if arr.shape != (n, n):
        raise RecipeError(f"correlation file has shape {arr.shape}, expected ({n}, {n})")
    return arr


def _parse_strikes(raw: str) -> list:
    try:
        values = [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise RecipeError(f"cannot parse strike list {raw!r}") from None
    if not values:
        raise RecipeError("empty strike list")
    return values


class CliState:
    def __init__(self, input_path, output_dir, seed, threads, log_format):
        self.input_path = input_path
        self.output_dir = output_dir
        self.seed = seed
        self.threads = threads
        self.log_format = log_format

    def require_input(self):
        if self.input_path is None:
            raise RecipeError("this command needs --input")
        return self.input_path


def _fail(exc: Exception):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(1)


def _guarded(fn):
    """Run a command body, mapping domain errors to JSON diagnostics."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (LocalCorrError, OSError) as exc:
            _fail(exc)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


# ----------------------------------------------------------------------


@click.group()
@click.option("--input", "input_path", type=click.Path(exists=False), default=None,
              help="Input file: market snapshot JSON, or a recipe for synth.")
@click.option("--output-dir", type=click.Path(file_okay=False), default=".",
              help="Directory receiving all output artifacts.")
@click.option("--seed", type=int, default=0, help="Base random seed.")
@click.option("--threads", type=int, default=None,
              help="Worker threads; overrides the LOCALCORR_THREADS environment variable.")
@click.option("--log", "log_format", type=click.Choice(["text", "json"]), default="text",
              help="Log line format on stderr.")
@click.pass_context
def main(ctx, input_path, output_dir, seed, threads, log_format):
    """Local correlation pricing toolkit."""
    _setup_logging(log_format)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx.obj = CliState(
        input_path=Path(input_path) if input_path else None,
        output_dir=out,
        seed=seed,
        threads=threads,
        log_format=log_format,
    )


@main.command()
@click.pass_obj
@_guarded
def synth(state: CliState):
    """Generate a synthetic market snapshot from a recipe file."""
    started = time.perf_counter()
    path = state.require_input()
    with open(path) as handle:
        raw = json.load(handle)
    recipe = recipe_from_dict(raw)
    snapshot = build_snapshot(recipe)
    out = state.output_dir / "snapshot.json"
    save_snapshot(snapshot, out)
    log.info("wrote %s", out)
    _write_manifest(state.output_dir, "synth", raw, recipe.seed, path, started)


@main.command()
@click.option("--maturity", type=float, required=True, help="Expiry in years.")
@click.option("--strikes", default="0.7,0.8,0.9,1.0,1.1,1.2",
              help="Moneyness list, comma or space separated.")
@click.option("--rho", type=float, default=None,
              help="Flat copula correlation; fitted to the ATM index vol when omitted.")
@click.option("--samples", type=int, default=1 << 16, help="Copula sample count.")
@click.pass_obj
@_guarded
def decode(state: CliState, maturity, strikes, rho, samples):
    """Compare market index vols with Gaussian-copula implied vols."""
    started = time.perf_counter()
    path = state.require_input()
    snapshot = load_snapshot(path)
    moneyness = _parse_strikes(strikes)
    spec = CopulaSpec(n_samples=samples, seed=state.seed)
    report = skew_comparison(snapshot, spec, maturity, tuple(moneyness), rho=rho)
    out = state.output_dir / "decode.csv"
    rows = [(m, mv, cv) for m, _, mv, cv in report.rows()]
    _write_csv(out, ["strike", "market_vol", "copula_vol"], rows)
    log.info("wrote %s (rho = %.6f)", out, report.flat_rho)
    params = {"command": "decode", "maturity": maturity, "strikes": moneyness,
              "rho": rho, "samples": samples, "seed": state.seed}
    _write_manifest(state.output_dir, "decode", params, state.seed, path, started)


@main.command()
@click.option("--horizon", type=float, default=None,
              help="Calibration horizon in years; defaults to the last quoted maturity.")
@click.option("--times", type=int, default=64, help="Time grid size.")
@click.option("--spots", type=int, default=161, help="Spot grid size.")
@click.pass_obj
@_guarded
def calibrate(state: CliState, horizon, times, spots):
    """Extract local volatility grids for every asset and the index."""
    from .dupire import calibrate_local_vol

    started = time.perf_counter()
    path = state.require_input()
    snapshot = load_snapshot(path)
    ids = list(snapshot.composition.ids) + [snapshot.index.asset_id]
    for asset_id in ids:
        cs = snapshot.call_surface(asset_id)
        h = horizon if horizon is not None else float(
            snapshot.asset(asset_id).vol_surface.max_maturity)
        lv = calibrate_local_vol(cs, h, n_times=times, n_spots=spots)
        rows = []
        for i, t in enumerate(lv.times):
            for j, ln_s in enumerate(lv.log_spots):
                rows.append((float(t), float(np.exp(ln_s)), float(lv.values[i, j])))
        out = state.output_dir / f"localvol_{asset_id}.csv"
        _write_csv(out, ["t", "spot", "local_vol"], rows)
        log.info("wrote %s", out)
    params = {"command": "calibrate", "horizon": horizon, "times": times, "spots": spots}
    _write_manifest(state.output_dir, "calibrate", params, state.seed, path, started)


def _build_config(state: CliState, paths, steps_per_year, seed, bounds_policy) -> SimulationConfig:
    return SimulationConfig(
        n_paths=paths,
        steps_per_year=steps_per_year,
        seed=state.seed if seed is None else seed,
        n_threads=state.threads,
        bounds_policy=bounds_policy,
    )


_price_options = [
    click.option("--maturity", type=float, required=True, help="Expiry in years."),
    click.option("--paths", type=int, default=100_000, help="Monte Carlo path count."),
    click.option("--steps-per-year", type=int, default=100, help="Euler steps per year."),
    click.option("--seed", "seed_override", type=int, default=None,
                 help="Seed override for this run."),
    click.option("--center", default="flat:0.5",
                 help="Center correlation: 'identity', 'flat:<rho>', or a JSON matrix file."),
    click.option("--bounds-policy", type=click.Choice(["clamp", "strict"]), default="clamp",
                 help="Dispersion bound violations: pin the state at the cap, or abort."),
]


def _with_price_options(fn):
    for opt in reversed(_price_options):
        fn = opt(fn)
    return fn


@main.command(name="price")
@click.option("--payoff", type=click.Choice(sorted(_PAYOFF_NAMES)), default="index-call")
@click.option("--strikes", default="1.0",
              help="Strikes as fractions of the index level (performance for worst-of).")
@_with_price_options
@click.pass_obj
@_guarded
def price_cmd(state: CliState, payoff, strikes, maturity, paths, steps_per_year,
              seed_override, center, bounds_policy):
    """Price European payoffs under the local correlation model."""
    started = time.perf_counter()
    path = state.require_input()
    snapshot = load_snapshot(path)
    family = CorrelationFamily(center=_parse_center(center, snapshot.n_assets))
    config = _build_config(state, paths, steps_per_year, seed_override, bounds_policy)
    kind = _PAYOFF_NAMES[payoff]
    moneyness = _parse_strikes(strikes)
    level = 1.0 if kind == "worst_of_put" else float(snapshot.index.spot)
    specs = [PayoffSpec(kind=kind, strike=m * level) for m in moneyness]
    market = calibrate_market(snapshot, family, maturity, config)
    results, diag = price_european(market, specs, config)
    payload = {
        "payoff": payoff,
        "maturity": maturity,
        "seed": config.seed,
        "n_paths": config.n_paths,
        "steps_per_year": config.steps_per_year,
        "results": [
            {
                "strike_fraction": m,
                "strike": r.payoff.strike,
                "price": r.price,
                "stderr": r.stderr,
            }
            for m, r in zip(moneyness, results)
        ],
        "df": results[0].df,
        "diagnostics": diag.as_dict(),
    }
    out = state.output_dir / "price.json"
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    log.info("wrote %s", out)
    params = {"command": "price", "payoff": payoff, "strikes": moneyness,
              "maturity": maturity, "paths": paths, "steps_per_year": steps_per_year,
              "seed": config.seed, "center": center, "bounds_policy": bounds_policy,
              "threads": config.resolve_threads()}
    _write_manifest(state.output_dir, "price", params, config.seed, path, started)


@main.command()
@click.option("--strikes", default="0.7,0.8,0.9,1.0,1.1,1.2",
              help="Moneyness buckets for payoff-conditioned averaging.")
@_with_price_options
@click.pass_obj
@_guarded
def diagnose(state: CliState, strikes, maturity, paths, steps_per_year, seed_override,
             center, bounds_policy):
    """Average path correlation conditioned on finishing in the money."""
    started = time.perf_counter()
    path = state.require_input()
    snapshot = load_snapshot(path)
    family = CorrelationFamily(center=_parse_center(center, snapshot.n_assets))
    config = _build_config(state, paths, steps_per_year, seed_override, bounds_policy)
    market = calibrate_market(snapshot, family, maturity, config)
    cube = simulate(market, config)
    moneyness = _parse_strikes(strikes)
    rows = []
    for m in moneyness:
        kind = "put" if m <= 1.0 else "call"
        rows.append((m, kind, average_correlation(cube, m, kind)))
    rows.append(("all", "none", average_correlation(cube)))
    out = state.output_dir / "diagnose.csv"
    _write_csv(out, ["strike", "conditioning", "average_correlation_pct"], rows)
    log.info("wrote %s", out)
    params = {"command": "diagnose", "strikes": moneyness, "maturity": maturity,
              "paths": paths, "steps_per_year": steps_per_year, "seed": config.seed,
              "center": center, "bounds_policy": bounds_policy}
    _write_manifest(state.output_dir, "diagnose", params, config.seed, path, started)


@main.command(name="dump-table")
@click.option("--states", type=int, default=101,
              help="Number of swept states; an even count gains one.")
@click.option("--shift", type=float, default=None,
              help="State spacing; by default the end states reach a blend weight of 0.999.")
@click.option("--center", default="flat:0.5",
              help="Center correlation: 'identity', 'flat:<rho>', or a JSON matrix file.")
@click.pass_obj
@_guarded
def dump_table(state: CliState, states, shift, center):
    """Write the smallest eigenvalue of the family along the signed state axis.

    States are l * shift for l in [-m, m], m = states // 2: the raising
    branch at positive states, the lowering branch at negative ones.
    """
    started = time.perf_counter()
    path = state.require_input()
    snapshot = load_snapshot(path)
    family = CorrelationFamily(center=_parse_center(center, snapshot.n_assets))
    if states < 3:
        raise CorrelationError("the sweep needs at least 3 states")
    m = states // 2
    # by default the end states reach the blend weight u^2 / (1 + u^2) = 0.999
    step = float(np.sqrt(0.999 / (1.0 - 0.999)) / m) if shift is None else shift
    if step <= 0.0:
        raise CorrelationError("shift must be positive")
    rows = []
    for l in range(-m, m + 1):
        kappa = 1 if l >= 0 else 0
        low = float(np.linalg.eigvalsh(family.evaluate(abs(l) * step, kappa))[0])
        rows.append((l * step, kappa, low))
    out = state.output_dir / "table.csv"
    _write_csv(out, ["state", "kappa", "min_eigenvalue"], rows)
    log.info("wrote %s", out)
    params = {"command": "dump-table", "states": states, "shift": shift, "center": center}
    _write_manifest(state.output_dir, "dump-table", params, state.seed, path, started)


if __name__ == "__main__":
    main()
