"""The reference workloads: markets, books, pricing calls and their checks.

Every call into the package goes through a module attribute
(``synth.build_snapshot``, ``engine.price_european``, ...), so the tracer
in ``tracing.py`` can time it without editing the package.  The workload
seed is offset from the acceptance-criterion seeds, so ``--seed 0``
reproduces the criterion markets and draws.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from localcorr import synth
from localcorr.copula import flat_correlation
from localcorr.corrfam import CorrelationFamily
from localcorr.errors import LocalCorrError
from localcorr.lcm import engine
from localcorr.lcm.engine import PayoffSpec, SimulationConfig
from localcorr.marketdata import snapshot as snapshot_io
from localcorr.marketdata.black import black_vega, implied_vol
from localcorr.synth import AssetRecipe, SyntheticRecipe

VOL_POINTS = 100.0
GATE_VP = 0.5  # criterion 2 and 6 tolerance on implied vol gaps, vol points
NOISE_Z = 3.0  # block10_mode: standard errors of noise allowed beyond GATE_VP
VANILLA_MONEYNESS = (0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
WOF_STRIKES = (0.6, 0.7, 0.8, 0.9)
WOF_REPORTED = 0.8
STEPS_PER_YEAR = 100


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Prepared:
    """Result of one setup: the reloaded snapshot, its calibrated market, the book."""

    snapshot: object
    market: object
    book: list = field(default_factory=list)


@dataclass
class Outcome:
    """One pricing call reduced to what the benchmark reports and checks."""

    fingerprint: str  # digest of every price and stderr (or of the path cube)
    wof_stderr: float
    accuracy: dict  # metric name -> vol points
    checks: list
    diagnostics: object


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _otm_call(call, put, fwd, k, df):
    """Out-of-the-money measurement: the call above the forward, put plus parity below."""
    return put + df * (fwd - k) if k <= fwd else call


def _vol_gap_vp(cs, call, fwd, k, expiry, df) -> float:
    iv = implied_vol(call, fwd, k, expiry, df)
    return abs(iv - float(cs.implied_vol(expiry, k))) * VOL_POINTS


def _finite_check(values) -> Check:
    arr = np.asarray(values, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(arr)))
    return Check("finite", bad == 0, f"{bad} non-finite of {arr.size}")


class Workload:
    """One named workload: a market recipe, a family, a run size and a pricing call."""

    name = ""
    horizon = 1.0
    n_paths = 0
    threads = 1
    recipe_seed = 0  # criterion recipe seed at --seed 0
    sim_seed = 0  # criterion simulation seed at --seed 0
    cli_center = None  # set: also check `localcorr price` across thread counts

    def recipe(self, seed: int) -> SyntheticRecipe:
        raise NotImplementedError

    def family(self) -> CorrelationFamily:
        raise NotImplementedError

    @property
    def n_steps(self) -> int:
        return int(np.ceil(STEPS_PER_YEAR * self.horizon))

    def config(self, seed: int, threads: int) -> SimulationConfig:
        return SimulationConfig(
            n_paths=self.n_paths, steps_per_year=STEPS_PER_YEAR,
            seed=self.sim_seed + seed, n_threads=threads,
        )

    def setup(self, seed: int, work_dir, threads: int) -> Prepared:
        """Build the market, round-trip it through JSON, calibrate; as synth then price."""
        built = synth.build_snapshot(self.recipe(seed))
        path = work_dir / f"{self.name}-snapshot.json"
        snapshot_io.save_snapshot(built, path)
        loaded = snapshot_io.load_snapshot(path)
        market = engine.calibrate_market(
            loaded, self.family(), self.horizon, self.config(seed, threads)
        )
        return Prepared(loaded, market, self.book(loaded))

    def book(self, snapshot) -> list:
        return []

    def price(self, prepared: Prepared, seed: int, threads: int):
        return engine.price_european(prepared.market, prepared.book, self.config(seed, threads))

    def evaluate(self, prepared: Prepared, raw) -> Outcome:
        raise NotImplementedError


class _BookWorkload(Workload):
    """European book priced by ``price_european`` at the one-year horizon."""

    index_moneyness = VANILLA_MONEYNESS
    constituent_vanillas = False

    def book(self, snapshot) -> list:
        specs = []
        fwd = snapshot.call_surface(snapshot.index.asset_id).forward(self.horizon)
        for m in self.index_moneyness:
            specs += [PayoffSpec("index_call", m * fwd), PayoffSpec("index_put", m * fwd)]
        if self.constituent_vanillas:
            for a in snapshot.composition.ids:
                fwd_a = snapshot.call_surface(a).forward(self.horizon)
                for m in VANILLA_MONEYNESS:
                    specs += [PayoffSpec("asset_call", m * fwd_a, asset_id=a),
                              PayoffSpec("asset_put", m * fwd_a, asset_id=a)]
        specs += [PayoffSpec("worst_of_put", k) for k in WOF_STRIKES]
        return specs

    def _gaps(self, snapshot, by_label, instruments, checks):
        """Worst implied vol gap (vol points) per instrument group, and the worst
        index gap beyond GATE_VP in standard errors of the Monte Carlo estimate."""
        df = snapshot.discount_curve.discount(self.horizon)
        worst = {}
        zmax = float("-inf")
        for group, asset_id, kind, suffix, moneyness in instruments:
            cs = snapshot.call_surface(asset_id)
            fwd = cs.forward(self.horizon)
            for m in moneyness:
                k = m * fwd
                call = by_label[f"{kind}_call{suffix}@{k:g}"]
                put = by_label[f"{kind}_put{suffix}@{k:g}"]
                used = put if k <= fwd else call
                mc = _otm_call(call.price, put.price, fwd, k, df)
                try:
                    gap = _vol_gap_vp(cs, mc, fwd, k, self.horizon, df)
                except LocalCorrError as exc:
                    checks.append(Check(f"{group}_implied_vol", False, str(exc)))
                    gap = float("inf")
                worst[group] = max(worst.get(group, 0.0), gap)
                if group == "index":
                    vega = float(black_vega(fwd, k, self.horizon,
                                            float(cs.implied_vol(self.horizon, k)), df))
                    stderr_vp = used.stderr / vega * VOL_POINTS
                    zmax = max(zmax, (gap - GATE_VP) / stderr_vp)
        return worst, zmax

    def evaluate(self, prepared: Prepared, raw) -> Outcome:
        results, diag = raw
        snapshot = prepared.snapshot
        prices = [r.price for r in results]
        errs = [r.stderr for r in results]
        checks = [_finite_check(prices + errs)]
        by_label = {r.payoff.label(): r for r in results}
        instruments = [("index", snapshot.index.asset_id, "index", "", self.index_moneyness)]
        if self.constituent_vanillas:
            instruments += [("const", a, "asset", f"[{a}]", VANILLA_MONEYNESS)
                            for a in snapshot.composition.ids]
        worst, zmax = self._gaps(snapshot, by_label, instruments, checks)
        accuracy = {"index_err_vp": worst["index"], "index_excess_z": zmax}
        if "const" in worst:
            accuracy["const_err_vp"] = worst["const"]
        checks += self.accuracy_checks(accuracy)
        wof = by_label[PayoffSpec("worst_of_put", WOF_REPORTED).label()]
        return Outcome(_digest(prices, errs), wof.stderr, accuracy, checks, diag)

    def accuracy_checks(self, accuracy) -> list:
        raise NotImplementedError


class Steep5Book(_BookWorkload):
    """The desk book on the CLI's default path: closed-form state solve, so time
    goes to local vol, covariance terms, normals and the engine's step loop."""

    name = "steep5_book"
    n_paths = 65_536
    threads = 2
    recipe_seed = 9
    sim_seed = 17
    constituent_vanillas = True
    cli_center = "flat:0.45"

    def recipe(self, seed):
        return SyntheticRecipe(
            assets=(
                AssetRecipe("AAA", spot=100.0, base_vol=0.20, skew=0.05),
                AssetRecipe("BBB", spot=80.0, base_vol=0.26, skew=0.06),
                AssetRecipe("CCC", spot=120.0, base_vol=0.23, skew=0.04),
                AssetRecipe("DDD", spot=95.0, base_vol=0.30, skew=0.07),
                AssetRecipe("EEE", spot=105.0, base_vol=0.22, skew=0.05),
            ),
            correlation=0.45, generator="steepened", steepen=0.06,
            seed=self.recipe_seed + seed,
        )

    def family(self):
        return CorrelationFamily(center=flat_correlation(5, 0.45))

    def accuracy_checks(self, accuracy):
        return [
            Check("index_err_vp", accuracy["index_err_vp"] < GATE_VP,
                  f"{accuracy['index_err_vp']:.4f} < {GATE_VP} vol points"),
            Check("const_err_vp", accuracy["const_err_vp"] < GATE_VP,
                  f"{accuracy['const_err_vp']:.4f} < {GATE_VP} vol points"),
        ]


class Block10Mode(_BookWorkload):
    """A non-unit mode sends the state solve through its bisection, which then
    dominates pricing; a solver change shows here and barely on steep5_book."""

    name = "block10_mode"
    n_paths = 8_192
    threads = 2
    recipe_seed = 4
    sim_seed = 23
    index_moneyness = (0.8, 0.9, 1.0, 1.1, 1.2)

    def recipe(self, seed):
        gen = np.random.default_rng(2)
        assets = tuple(
            AssetRecipe(
                f"A{i:02d}",
                spot=float(gen.uniform(60.0, 140.0)),
                base_vol=float(gen.uniform(0.18, 0.32)),
                skew=float(gen.uniform(0.03, 0.07)),
            )
            for i in range(10)
        )
        return SyntheticRecipe(assets=assets, correlation=0.5, generator="steepened",
                               steepen=0.05, seed=self.recipe_seed + seed)

    def family(self):
        center = np.full((10, 10), 0.2)
        center[:5, :5] = 0.8
        center[5:, 5:] = 0.8
        np.fill_diagonal(center, 1.0)
        mode = np.concatenate([np.full(5, 1.0), np.full(5, 1.5)])
        return CorrelationFamily(center=center, mode=mode)

    def accuracy_checks(self, accuracy):
        # noise-scaled: at this path count Monte Carlo noise alone can push the
        # index gap past a fixed vol-point gate, so the gate allows NOISE_Z
        # standard errors on top of the criterion 6 tolerance
        return [Check("index_excess_z", accuracy["index_excess_z"] < NOISE_Z,
                      f"index gap beyond {GATE_VP} vol points is {accuracy['index_excess_z']:.2f} "
                      f"< {NOISE_Z} standard errors")]


class Roundtrip1Cube(Workload):
    """One asset at a forced state: no copula and no state solve, so solver or
    table changes should not move it; the single-threaded, path-recording baseline."""

    name = "roundtrip1_cube"
    horizon = 2.0
    n_paths = 65_536
    threads = 1
    recipe_seed = 11
    sim_seed = 11
    dates = (1.0, 2.0)

    def recipe(self, seed):
        return SyntheticRecipe(
            assets=(AssetRecipe("AAA", spot=100.0, base_vol=0.20, skew=0.05),),
            correlation=0.0, generator="copula-consistent", seed=self.recipe_seed + seed,
        )

    def family(self):
        return CorrelationFamily(center=np.eye(1))

    def config(self, seed, threads):
        return SimulationConfig(
            n_paths=self.n_paths, steps_per_year=STEPS_PER_YEAR,
            seed=self.sim_seed + seed, n_threads=threads, forced_state=(0.0, 1),
        )

    def price(self, prepared, seed, threads):
        return engine.simulate(prepared.market, self.config(seed, threads), dates=list(self.dates))

    def evaluate(self, prepared, cube) -> Outcome:
        snapshot = prepared.snapshot
        asset_id = cube.asset_ids[0]
        checks = [_finite_check(cube.values)]
        worst = {"const_err_vp": 0.0, "index_err_vp": 0.0}
        n = cube.n_paths
        for j, expiry in enumerate(cube.dates):
            df = snapshot.discount_curve.discount(expiry)
            for group, inst, level in (("const_err_vp", asset_id, cube.values[:, 0, j]),
                                       ("index_err_vp", snapshot.index.asset_id,
                                        cube.basket(j))):
                cs = snapshot.call_surface(inst)
                fwd = cs.forward(expiry)
                for m in VANILLA_MONEYNESS:
                    k = m * fwd
                    if k <= fwd:
                        call = df * (fwd - k) + df * float(np.mean(np.maximum(k - level, 0.0)))
                    else:
                        call = df * float(np.mean(np.maximum(level - k, 0.0)))
                    try:
                        gap = _vol_gap_vp(cs, call, fwd, k, expiry, df)
                    except LocalCorrError as exc:
                        checks.append(Check(f"{group}_implied_vol", False, str(exc)))
                        gap = float("inf")
                    worst[group] = max(worst[group], gap)
        checks += [Check(name, worst[name] < GATE_VP, f"{worst[name]:.4f} < {GATE_VP} vol points")
                   for name in ("const_err_vp", "index_err_vp")]
        # the one-asset worst-of is a put on the asset's performance
        j1 = cube.dates.index(min(cube.dates, key=lambda t: abs(t - 1.0)))
        perf = cube.values[:, 0, j1] / cube.spots0[0]
        pay = np.maximum(WOF_REPORTED - perf, 0.0)
        wof_stderr = snapshot.discount_curve.discount(cube.dates[j1]) * float(
            np.std(pay) / np.sqrt(n))
        return Outcome(_digest(cube.values), wof_stderr, worst, checks, cube.diagnostics)


WORKLOADS = {w.name: w for w in (Steep5Book(), Block10Mode(), Roundtrip1Cube())}


def cli_thread_identity(snapshot, center: str, work_dir, seed: int, threads: int) -> Check:
    """``localcorr price`` in-process at 1 and ``threads`` threads: byte-identical price.json."""
    from click.testing import CliRunner

    from localcorr import cli

    path = work_dir / "cli-snapshot.json"
    snapshot_io.save_snapshot(snapshot, path)
    blobs = []
    for n in (1, threads):
        out = work_dir / f"cli-threads{n}"
        res = CliRunner().invoke(cli.main, [
            "--input", str(path), "--output-dir", str(out), "--threads", str(n),
            "--seed", str(seed), "price", "--maturity", "1.0", "--paths", "8192",
            "--steps-per-year", "25", "--strikes", "0.9,1.0,1.1", "--center", center,
        ])
        if res.exit_code != 0:
            return Check("cli_price_thread_identity", False,
                         f"exit code {res.exit_code}: {res.output[-300:]}")
        blobs.append((out / "price.json").read_bytes())
    return Check("cli_price_thread_identity", blobs[0] == blobs[1],
                 f"price.json at 1 and {threads} threads, {len(blobs[0])} bytes")
