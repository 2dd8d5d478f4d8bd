"""Command-line interface: synth, decode, calibrate, price, diagnose, dump-table.

Every command reads one input file (a snapshot, or a recipe for synth),
writes its artifacts into the output directory and drops a run manifest
next to them.  Reruns with identical manifests produce byte-identical
primary outputs; wall-clock runtime lives only in the manifest.  Errors
print one machine-readable JSON object to stderr and exit nonzero.
"""
from __future__ import annotations

import csv
import functools
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
from ._inputs import is_number_rows, read_json
from .copula import CopulaSpec, flat_correlation, skew_comparison
from .corrfam import CorrelationFamily
from .dupire import calibrate_local_vol
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


def _write_manifest(out_dir, command, params, seed, input_path, started):
    """The reproducibility record next to every command's outputs."""
    config = json.dumps(params, sort_keys=True, default=str).encode()
    manifest = {
        "command": command,
        "config_digest": hashlib.sha256(config).hexdigest(),
        "seed": int(seed),
        "input_digest": hashlib.sha256(input_path.read_bytes()).hexdigest(),
        "version": __version__,
        "runtime_seconds": round(time.perf_counter() - started, 3),
    }
    with open(out_dir / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


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
        raw = read_json(center, RecipeError)
    except OSError as exc:
        raise RecipeError(f"cannot read correlation file {center!r}: {exc}") from exc
    mat = raw.get("matrix", raw) if isinstance(raw, dict) else raw
    if not is_number_rows(mat):
        raise RecipeError(f"correlation file {center!r} holds non-numeric entries, "
                          "expected a list of number lists")
    if len(mat) != n or any(len(row) != n for row in mat):
        raise RecipeError(f"correlation file {center!r} has the wrong shape, expected ({n}, {n})")
    return np.asarray(mat, dtype=float)


def _parse_strikes(raw: str) -> list:
    try:
        values = [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise RecipeError(f"cannot parse strike list {raw!r}") from None
    if not values:
        raise RecipeError("empty strike list")
    if not all(0.0 < v < np.inf for v in values):
        raise RecipeError(f"strikes must be positive and finite, got {raw!r}")
    return values


@dataclass(frozen=True)
class CliState:
    input_path: Path | None
    output_dir: Path
    seed: int
    threads: int | None


def _fail(exc: Exception):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(1)


# ----------------------------------------------------------------------


@click.group()
@click.option("--input", "input_path", type=click.Path(exists=False), default=None,
              help="Input file: market snapshot JSON, or a recipe for synth.")
@click.option("--output-dir", type=click.Path(file_okay=False), default=".",
              help="Directory receiving all output artifacts.")
@click.option("--seed", type=int, default=0, help="Base random seed.")
@click.option("--threads", type=int, default=None,
              help="Worker processes; overrides the LOCALCORR_THREADS environment variable.")
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
    )


def _command(name: str):
    """Register ``body(state, path, **options) -> (params, seed)`` as command ``name``.

    The runner requires ``--input``, times the body and writes the
    manifest from the returned config parameters and seed.  Domain, I/O
    and out-of-memory errors print one JSON error object to stderr and
    exit 1.
    """

    def register(body):
        @main.command(name=name)
        @click.pass_obj
        @functools.wraps(body)  # carries the body's docstring and click options
        def run(state: CliState, **options):
            started = time.perf_counter()
            try:
                if state.input_path is None:
                    raise RecipeError("this command needs --input")
                params, seed = body(state, state.input_path, **options)
                _write_manifest(state.output_dir, name, params, seed, state.input_path, started)
            except (LocalCorrError, OSError) as exc:
                _fail(exc)
            except MemoryError as exc:  # numpy raises a private subclass
                _fail(MemoryError(str(exc)))

        return run

    return register


@_command("synth")
def synth(state: CliState, path):
    """Generate a synthetic market snapshot from a recipe file."""
    raw = read_json(path, RecipeError)
    recipe = recipe_from_dict(raw)
    snapshot = build_snapshot(recipe)
    out = state.output_dir / "snapshot.json"
    save_snapshot(snapshot, out)
    log.info("wrote %s", out)
    return raw, recipe.seed


@_command("decode")
@click.option("--maturity", type=float, required=True, help="Expiry in years.")
@click.option("--strikes", default="0.7,0.8,0.9,1.0,1.1,1.2",
              help="Moneyness list, comma or space separated.")
@click.option("--rho", type=float, default=None,
              help="Flat copula correlation; fitted to the ATM index vol when omitted.")
@click.option("--samples", type=int, default=1 << 16, help="Copula sample count.")
def decode(state: CliState, path, maturity, strikes, rho, samples):
    """Compare market index vols with Gaussian-copula implied vols."""
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
    return params, state.seed


@_command("calibrate")
@click.option("--horizon", type=float, default=None,
              help="Calibration horizon in years; defaults to the last quoted maturity.")
@click.option("--times", type=int, default=64, help="Time grid size.")
@click.option("--spots", type=int, default=161, help="Spot grid size.")
def calibrate(state: CliState, path, horizon, times, spots):
    """Extract local volatility grids for every asset and the index."""
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
    return params, state.seed


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


@_command("price")
@click.option("--payoff", type=click.Choice(sorted(_PAYOFF_NAMES)), default="index-call")
@click.option("--strikes", default="1.0",
              help="Strikes as fractions of the index level (performance for worst-of).")
@_with_price_options
def price_cmd(state: CliState, path, payoff, strikes, maturity, paths, steps_per_year,
              seed_override, center, bounds_policy):
    """Price European payoffs under the local correlation model."""
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
                "variance_ratio": r.variance_ratio,
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
    return params, config.seed


@_command("diagnose")
@click.option("--strikes", default="0.7,0.8,0.9,1.0,1.1,1.2",
              help="Moneyness buckets for payoff-conditioned averaging.")
@_with_price_options
def diagnose(state: CliState, path, strikes, maturity, paths, steps_per_year, seed_override,
             center, bounds_policy):
    """Average path correlation conditioned on finishing in the money."""
    snapshot = load_snapshot(path)
    family = CorrelationFamily(center=_parse_center(center, snapshot.n_assets))
    config = _build_config(state, paths, steps_per_year, seed_override, bounds_policy)
    moneyness = _parse_strikes(strikes)
    market = calibrate_market(snapshot, family, maturity, config)
    cube = simulate(market, config)
    rows = []
    for m in moneyness:
        rows.append((m, "put" if m <= 1.0 else "call", average_correlation(cube, m)))
    rows.append(("all", "none", average_correlation(cube)))
    out = state.output_dir / "diagnose.csv"
    _write_csv(out, ["strike", "conditioning", "average_correlation_pct"], rows)
    log.info("wrote %s", out)
    params = {"command": "diagnose", "strikes": moneyness, "maturity": maturity,
              "paths": paths, "steps_per_year": steps_per_year, "seed": config.seed,
              "center": center, "bounds_policy": bounds_policy}
    return params, config.seed


@_command("dump-table")
@click.option("--states", type=int, default=101,
              help="Number of swept states; an even count gains one.")
@click.option("--shift", type=float, default=None,
              help="State spacing; by default the end states reach a blend weight of 0.999.")
@click.option("--center", default="flat:0.5",
              help="Center correlation: 'identity', 'flat:<rho>', or a JSON matrix file.")
def dump_table(state: CliState, path, states, shift, center):
    """Write the smallest eigenvalue of the family along the signed state axis.

    States are l * shift for l in [-m, m], m = states // 2: the raising
    branch at positive states, the lowering branch at negative ones.
    """
    snapshot = load_snapshot(path)
    family = CorrelationFamily(center=_parse_center(center, snapshot.n_assets))
    if states < 3:
        raise CorrelationError("the sweep needs at least 3 states")
    m = states // 2
    # by default the end states reach the blend weight u^2 / (1 + u^2) = 0.999
    step = float(np.sqrt(0.999 / (1.0 - 0.999)) / m) if shift is None else shift
    if not (step > 0.0 and np.isfinite(m * step)):
        raise CorrelationError(f"--shift must be positive with a finite top state, got {shift!r}")
    rows = []
    for l in range(-m, m + 1):
        kappa = 1 if l >= 0 else 0
        low = float(np.linalg.eigvalsh(family.evaluate(abs(l) * step, kappa))[0])
        rows.append((l * step, kappa, low))
    out = state.output_dir / "table.csv"
    _write_csv(out, ["state", "kappa", "min_eigenvalue"], rows)
    log.info("wrote %s", out)
    params = {"command": "dump-table", "states": states, "shift": shift, "center": center}
    return params, state.seed


if __name__ == "__main__":
    main()
