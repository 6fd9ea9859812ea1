"""The benchmark's workloads: set-up, one timed pass, output checks.

Every workload follows one shape.  ``setup`` does all work before the
timed part and may run several times (the last result is kept).
``run_pass(k)`` is one unit of timed work; ``run.py`` repeats it until
the run's time budget is spent.  ``check`` runs after timing and
returns one message per failed check.  ``e2e`` turns what the passes
recorded into the end-to-end metrics.

Probes that the end-to-end metrics need (per-configuration time, GP-UCB
decision time, propose latency in the service) are installed with
:class:`perfbench.layers.Patches` around the timed part and cost a
clock read per call.  They read :func:`hostspeed.clock`, which leaves
out the host-speed samples.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from hostspeed import clock
from layers import Patches

#: Iterations of one closed-loop tuning session (the paper's 127).
ITERATIONS = 127
#: Repetitions per strategy in one ``compare-b`` pass.
COMPARE_REPS = 4
#: Base seeds of the first passes of every ``compare-b`` run; the cells
#: of pass 0 must match ``expected.json``.  How slow a session's slowest
#: decisions are depends on its seed (p95 over p50 of one pass spread
#: by 19% over 12 seeds), so a fixed panel keeps most of a run's tail
#: the same from run to run.  Pass k past the panel uses the run's seed
#: plus k times ``PASS_SEED_STRIDE``.
COMPARE_PANEL = (0, 1)
PASS_SEED_STRIDE = 1_000_003
#: Committed results of the reference pass (see ``README.md`` to
#: regenerate them after an intended change of strategy results).
EXPECTED = Path(__file__).resolve().parent / "expected.json"
#: The tuning-service load: tenants, shards, fuzzed platforms, arrival
#: window (ticks) and tile count (the CI pin of ``BENCH_serve.json``).
SERVE_TENANTS = 500
SERVE_SHARDS = 4
SERVE_FUZZ = 4
SERVE_ARRIVAL_WINDOW = 64
SERVE_TILES = 16
#: Tenant populations every ``serve-500`` run serves, one per pass;
#: population 0 is the one ``BENCH_serve.json`` describes.
SERVE_PANEL = (0, 1, 2, 3, 4)
#: The run's own population is ``SERVE_SEED_BASE + seed``, past the panel.
SERVE_SEED_BASE = 1000
#: Report metrics that count bank-registry lookups: the set-up fills
#: the registry before the timed part, so they differ from a cold
#: ``repro serve bench`` by design and are left out of the comparison.
SERVE_WARMTH_METRICS = ("serve.banks.hits", "serve.banks.misses")


def quantile(values: List[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


class Workload:
    """Interface shared by the workloads (see module docstring)."""

    name = ""
    why = ""
    #: Passes every untraced run makes, so the latency tail has samples.
    min_passes = 1
    #: Tail percentile reported as ``latency_ms_tail``.
    tail_q = 0.99
    #: Duration-cache hit ratio of the set-up (serve-500 only).
    hit_ratio = 0.0
    #: Kinds of ``hostspeed.SLICES`` whose speed the host's speed is
    #: read from: the ones that slow down as the workload does when
    #: the host is busy.
    host_slices = ("interpreted", "gp")

    def __init__(self, seed: int, cache_root: Path) -> None:
        self.seed = seed
        self.cache_root = cache_root
        self.attempted = 0
        #: Operations that failed inside a pass; each message returned by
        #: :meth:`check` counts as one more.
        self.failed_ops = 0
        #: Messages about the operations counted in ``failed_ops``.
        self.notes: List[str] = []
        self.latencies_s: List[float] = []
        self.pass_s: List[float] = []
        #: Per pass, the factor turning its times into reference-host time.
        self.pass_scale: List[float] = []
        self.pass_ops: List[int] = []
        #: Per pass, the slice of ``latencies_s`` it recorded.
        self.pass_latencies: List[slice] = []
        self._dirs = 0

    def fresh_cache_dir(self) -> Path:
        """A new, empty ``REPRO_CACHE_DIR`` for the next bank build."""
        self._dirs += 1
        path = self.cache_root / f"c{self._dirs:03d}"
        path.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(path)
        return path

    def env(self) -> Dict[str, Optional[str]]:
        """Environment the workload runs under (None = unset)."""
        return {"REPRO_TILES_101": None, "REPRO_TILES_128": None,
                "REPRO_SIMFAST": None, "REPRO_SWEEP_WORKERS": "1"}

    def settings(self) -> Dict[str, object]:
        return {}

    def setup(self) -> None:
        raise NotImplementedError

    def probes(self, patches: Patches) -> None:
        """Install the wrappers the end-to-end metrics need."""

    def run_pass(self, k: int) -> None:
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    def details(self) -> Dict[str, object]:
        """Deterministic results recorded with the run."""
        return {}

    def run_timed_pass(self, k: int, sampler) -> None:
        """``run_pass`` with the pass's time, host scale, operations and
        latencies."""
        ops, first = self.attempted, len(self.latencies_s)
        mark = sampler.mark()
        self.run_pass(k)
        seconds, scale = sampler.since(mark)
        self.pass_s.append(seconds)
        self.pass_scale.append(scale)
        self.pass_ops.append(self.attempted - ops)
        self.pass_latencies.append(slice(first, len(self.latencies_s)))

    def e2e(self, scales: List[float]) -> Dict[str, float]:
        """Operations per second over all passes, and latency quantiles
        over all latencies, each pass's times multiplied by its entry of
        ``scales``."""
        scaled = []
        for samples, k in zip(self.pass_latencies, scales):
            scaled.extend(k * t for t in self.latencies_s[samples])
        return {
            "ops_per_s": sum(self.pass_ops) / sum(
                s * k for s, k in zip(self.pass_s, scales)),
            "latency_ms_p50": 1e3 * self.latency_quantile(scaled, 0.5),
            "latency_ms_tail": 1e3 * self.latency_quantile(scaled,
                                                           self.tail_q),
        }

    def latency_quantile(self, latencies: List[float], q: float) -> float:
        """Quantile ``q`` of ``latencies``, which line up with
        ``latencies_s``."""
        return quantile(latencies, q)


class ColdSweep(Workload):
    """Cold bank builds of scenario b and then c at default tiles.

    One operation is one simulated configuration.  Each pass builds both
    banks through ``cached_bank``, each from an empty cache directory,
    with the run's seed as the noise seed.
    """

    name = "cold-sweep"
    why = ("all graph build, template bind and DES engine; the wave-drain "
           "ablation made b faster and c slower, so an engine trade shows")
    scenarios = ("b", "c")
    min_passes = 3
    tail_q = 0.8
    #: No GP work; a slice with a GP step tracked it less well.
    host_slices = ("interpreted",)

    def __init__(self, seed: int, cache_root: Path) -> None:
        super().__init__(seed, cache_root)
        self.banks: Dict[str, list] = {key: [] for key in self.scenarios}
        self.bank_dirs: Dict[str, List[Path]] = {k: [] for k in self.scenarios}
        self.scenario_s: Dict[str, float] = {key: 0.0 for key in self.scenarios}
        #: Scenario of each entry of ``latencies_s``.
        self.sample_scenario: List[str] = []

    def settings(self) -> Dict[str, object]:
        return {"scenarios": list(self.scenarios), "noise_seed": self.seed,
                "bank_cache": "cached_bank, empty REPRO_CACHE_DIR per bank"}

    def setup(self) -> None:
        from repro.platform.scenarios import SCENARIOS

        self.scenario_of = {key: SCENARIOS[key] for key in self.scenarios}

    def probes(self, patches: Patches) -> None:
        # One call per configuration on either engine's sweep path.
        for target in ("repro.measure.batch:ScenarioBatch.measure",
                       "repro.geostat.application:ExaGeoStat.measure"):
            patches.wrap(target, self._timed)

    def _timed(self, fn):
        out = self.latencies_s

        def measure(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            out.append(clock() - t0)
            return result

        return measure

    def latency_quantile(self, latencies: List[float], q: float) -> float:
        """Mean over the scenarios of each one's quantile ``q``.

        A c configuration takes about twice as long as a b one, so the
        quantiles of b and c times together fall in the gap between the
        two and jump from run to run.
        """
        return statistics.fmean(
            quantile([t for t, k in zip(latencies, self.sample_scenario)
                      if k == key], q)
            for key in self.scenarios)

    def run_pass(self, k: int) -> None:
        from repro.measure.sweep import cached_bank

        for key in self.scenarios:
            self.bank_dirs[key].append(self.fresh_cache_dir())
            first = len(self.latencies_s)
            t0 = clock()
            bank = cached_bank(self.scenario_of[key], seed=self.seed)
            self.scenario_s[key] += clock() - t0
            self.sample_scenario.extend(
                [key] * (len(self.latencies_s) - first))
            self.attempted += len(bank.actions)
            self.banks[key].append(bank)

    def check(self) -> List[str]:
        failures: List[str] = []
        for key in self.scenarios:
            failures.extend(f"{key}: {msg}" for msg in self._check(key))
        return failures

    def _check(self, key: str) -> List[str]:
        from repro.geostat.phases import IterationPlan, build_iteration_graph
        from repro.measure.bank import MeasurementBank
        from repro.runtime.perfmodel import PerfModel
        from repro.runtime.simulator import Simulator
        from repro.workload import Workload as AppWorkload

        failures: List[str] = []
        first = self.banks[key][0]
        for k, bank in enumerate(self.banks[key]):
            if not same_bank(bank, first):
                failures.append(f"pass {k} bank differs from pass 0")
        for path in self.bank_dirs[key]:
            files = sorted(path.glob("*.json"))
            if len(files) != 1:
                failures.append(f"{path.name}: {len(files)} bank files")
            elif not same_bank(MeasurementBank.load(files[0]), first):
                failures.append(f"{files[0].name} does not reload")
        for n in first.actions:
            values = first.samples[n]
            if not (len(values) and np.all(np.isfinite(values))
                    and math.isfinite(first.true_means[n])):
                failures.append(f"config {n}: non-finite bank entries")
        # Reference engine on the naive graph build, for a fixed sample.
        scenario = self.scenario_of[key]
        cluster = scenario.build_cluster()
        workload = AppWorkload.from_name(scenario.workload)
        simulator = Simulator(cluster, PerfModel())
        actions = first.actions
        for n in sorted({actions[0], actions[len(actions) // 2], actions[-1]}):
            graph = build_iteration_graph(
                cluster, workload, IterationPlan(n_fact=n, n_gen=len(cluster)))
            expected = simulator.run(graph).makespan
            if first.true_means[n] != expected:
                failures.append(
                    f"config {n}: makespan {first.true_means[n]!r} != "
                    f"reference {expected!r}")
        return failures

    def details(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for key in self.scenarios:
            banks = self.banks[key]
            configs = sum(len(bank.actions) for bank in banks)
            out[f"sweep.{key}.configs_per_s"] = configs / self.scenario_s[key]
            out[f"sweep.{key}.best_config"] = int(banks[0].best_action())
        return out


def same_bank(a, b) -> bool:
    return (tuple(a.actions) == tuple(b.actions)
            and a.true_means == b.true_means and a.lp == b.lp
            and all(np.array_equal(a.samples[n], b.samples[n])
                    for n in a.actions))


class CompareB(Workload):
    """The paper's strategies and both baselines on b's bank.

    One operation is one propose/observe pair.  The set-up builds b's
    bank from an empty cache; each pass runs every strategy for
    ``COMPARE_REPS`` repetitions of ``ITERATIONS`` iterations through
    ``evaluate.parallel.run_cells``.
    """

    name = "compare-b"
    why = ("long closed-loop tuning sessions on b: 80-90% GaussianProcess.fit "
           "on data growing to 127 points; the simulator does no timed work")
    min_passes = 3
    #: Not p98: every session's first GP fit and its largest late refits
    #: sit right at the top 2% of a pass's 508 decisions, so p98 jumped
    #: between 31 and 45 ms from seed to seed at one host speed.
    tail_q = 0.95

    def __init__(self, seed: int, cache_root: Path) -> None:
        super().__init__(seed, cache_root)
        self.bank = None
        self.problems: List[str] = []
        #: Cell results of every reference pass (pass 0).
        self.reference_results: List[list] = []

    def settings(self) -> Dict[str, object]:
        from repro.strategies.registry import STRATEGY_ORDER

        return {"scenario": "b", "bank_seed": 12345,
                "bank_cache": "empty REPRO_CACHE_DIR per set-up",
                "strategies": list(STRATEGY_ORDER) + ["All-nodes", "Oracle"],
                "reps": COMPARE_REPS, "iterations": ITERATIONS,
                "pass_base_seed": f"{list(COMPARE_PANEL)} on the first "
                                  f"passes, {self.seed} + "
                                  f"{PASS_SEED_STRIDE} * pass after",
                "workers": 1}

    def setup(self) -> None:
        from repro.measure.sweep import cached_bank
        from repro.platform.scenarios import SCENARIOS

        self.fresh_cache_dir()
        bank = cached_bank(SCENARIOS["b"])
        if self.bank is not None and not same_bank(bank, self.bank):
            self.problems.append("set-up banks differ between set-ups")
        self.bank = bank

    def probes(self, patches: Patches) -> None:
        # A GP-UCB decision is a propose and the observe that answers it,
        # the span ``Strategy.overheads`` covers, timed with ``clock``.
        proposing: Dict[int, float] = {}
        latencies = self.latencies_s

        def wrap_propose(fn):
            def propose(strategy):
                t0 = clock()
                n = fn(strategy)
                if strategy.name == "GP-UCB":
                    proposing[id(strategy)] = clock() - t0
                return n
            return propose

        def wrap_observe(fn):
            def observe(strategy, n, duration):
                t0 = clock()
                fn(strategy, n, duration)
                if strategy.name == "GP-UCB":
                    latencies.append(proposing.pop(id(strategy))
                                     + clock() - t0)
            return observe

        patches.wrap("repro.strategies.base:Strategy.propose", wrap_propose)
        patches.wrap("repro.strategies.base:Strategy.observe", wrap_observe)

    def run_pass(self, k: int) -> None:
        from repro.evaluate.parallel import plan_cells, run_cells
        from repro.strategies.registry import STRATEGY_ORDER

        bank = self.bank
        cells = plan_cells([bank.label], STRATEGY_ORDER, COMPARE_REPS)
        base_seed = (COMPARE_PANEL[k] if k < len(COMPARE_PANEL)
                     else self.seed + PASS_SEED_STRIDE * k)
        results = run_cells({bank.label: bank}, cells, ITERATIONS,
                            base_seed=base_seed)
        self.attempted += len(cells) * ITERATIONS
        actions = set(int(a) for a in bank.actions)
        for result in results:
            bad = (not math.isfinite(result.total)
                   or len(result.chosen) != ITERATIONS
                   or not all(int(n) in actions for n in result.chosen))
            if bad:
                self.failed_ops += ITERATIONS
                self.notes.append(f"pass {k} cell {result.cell}: non-finite "
                                  "total or proposal outside the action space")
        if k == 0:
            self.reference_results.append(results)

    def check(self) -> List[str]:
        """Set-up problems, and every reference-pass cell or regret that
        differs from ``expected.json``."""
        failures = list(self.problems)
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["compare-b"]
        for results in self.reference_results:
            got = cell_digests(results)
            for cell, digest in sorted(expected["cells"].items()):
                if got.pop(cell, None) != digest:
                    failures.append(f"reference cell {cell} differs from "
                                    "expected.json")
            failures.extend(f"reference cell {cell} not in expected.json"
                            for cell in sorted(got))
            regret = regret_pct(results)
            if regret != expected["regret_pct"]:
                failures.append(f"reference regret_pct {regret!r} != "
                                f"expected {expected['regret_pct']!r}")
        return failures

    def details(self) -> Dict[str, object]:
        return {"compare.regret_pct": regret_pct(self.reference_results[0]),
                "compare.reference_cells": cell_digests(
                    self.reference_results[0]),
                "gp_ucb_decisions": len(self.latencies_s)}


def regret_pct(results) -> float:
    """The paper strategies' mean excess total time over Oracle, in %."""
    from repro.evaluate.parallel import ORACLE_CELL
    from repro.strategies.registry import STRATEGY_ORDER

    totals: Dict[str, List[float]] = {}
    for result in results:
        totals.setdefault(result.cell.strategy, []).append(result.total)
    oracle = statistics.fmean(totals[ORACLE_CELL])
    return statistics.fmean(
        100.0 * (statistics.fmean(totals[name]) - oracle) / oracle
        for name in STRATEGY_ORDER)


def cell_digests(results) -> Dict[str, str]:
    """``strategy/rep`` -> digest of the cell's total and chosen actions."""
    out = {}
    for result in results:
        digest = hashlib.sha256(repr(float(result.total)).encode())
        digest.update(np.asarray(result.chosen, dtype=np.int64).tobytes())
        out[f"{result.cell.strategy}/{result.cell.rep}"] = (
            digest.hexdigest()[:16])
    return out


class Serve500(Workload):
    """500 closed-loop tenants against the in-process tuning service.

    One operation is one wire request.  A run serves the fixed panel of
    seeded tenant populations ``SERVE_PANEL`` and one population drawn
    from the run's seed, one per pass.  A pass takes up to twice as long
    from one population to the next (how much GP work its fuzzed
    platforms hold), so six populations all drawn from the seed moved a
    run's median by about 10% from seed to seed; the panel keeps the
    traffic mix fixed, and the seed's population keeps it from being the
    only mix ever measured.  The set-up fills one ``BankStore`` per population with every bank
    the population needs, so each ``serve.loadgen.run_bench`` pass only
    serves.
    """

    name = "serve-500"
    why = ("serve protocol, sessions and shards under 500 tenants, mostly "
           "cheap strategies; GP fits here are short warm-started sessions")
    min_passes = len(SERVE_PANEL) + 1

    def __init__(self, seed: int, cache_root: Path) -> None:
        super().__init__(seed, cache_root)
        self.populations = list(SERVE_PANEL) + [SERVE_SEED_BASE + seed]
        self.reports: Dict[int, List[dict]] = {p: [] for p in self.populations}

    def env(self) -> Dict[str, Optional[str]]:
        env = super().env()
        env["REPRO_TILES_101"] = env["REPRO_TILES_128"] = str(SERVE_TILES)
        return env

    def settings(self) -> Dict[str, object]:
        return {"tenants": SERVE_TENANTS, "shards": SERVE_SHARDS,
                "fuzz_platforms": SERVE_FUZZ,
                "arrival_window_ticks": SERVE_ARRIVAL_WINDOW,
                "population_seeds": self.populations,
                "clients": "closed loop",
                "bank_cache": "one empty REPRO_CACHE_DIR per set-up"}

    def setup(self) -> None:
        from repro.fuzz.platforms import sample_corpus
        from repro.fuzz.properties import build_bank
        from repro.platform.scenarios import SCENARIOS
        from repro.serve.loadgen import sample_tenants
        from repro.serve.service import BankStore

        # One cache directory per set-up: the first population sweeps the
        # table banks, the others load them from it.
        self.fresh_cache_dir()
        self.stores = {}
        for seed in self.populations:
            specs = sample_tenants(SERVE_TENANTS, seed=seed,
                                   fuzz_count=SERVE_FUZZ,
                                   arrival_window=SERVE_ARRIVAL_WINDOW)
            fuzzed = {p.scenario.key: p
                      for p in sample_corpus(SERVE_FUZZ, root_seed=seed)}
            store = BankStore()
            for key in sorted({spec.scenario_key for spec in specs}):
                if key in SCENARIOS:
                    store.bank_for_scenario(SCENARIOS[key])
                else:
                    platform = fuzzed[key]
                    store.put(platform.fingerprint(), build_bank(platform))
            self.stores[seed] = store
        self.hit_ratio = float(
            self.stores[0].cache.stats()["hit_rate"])

    def probes(self, patches: Patches) -> None:
        sent: Dict[str, float] = {}
        latencies = self.latencies_s

        def wrap_handle(fn):
            def handle(service, message):
                self.attempted += 1
                if message["kind"] == "propose":
                    sent[str(message["tenant"])] = clock()
                return fn(service, message)
            return handle

        def wrap_tick(fn):
            def tick(service):
                responses = fn(service)
                now = clock()
                for response in responses:
                    if response["kind"] == "proposal":
                        latencies.append(now - sent.pop(str(response["tenant"])))
                return responses
            return tick

        patches.wrap("repro.serve.service:TuningService.handle", wrap_handle)
        patches.wrap("repro.serve.service:TuningService.tick", wrap_tick)

    def run_pass(self, k: int) -> None:
        from repro.serve.loadgen import run_bench

        seed = self.populations[k % len(self.populations)]
        report = run_bench(tenants=SERVE_TENANTS, shards=SERVE_SHARDS,
                           seed=seed, fuzz_count=SERVE_FUZZ,
                           arrival_window=SERVE_ARRIVAL_WINDOW,
                           bank_store=self.stores[seed])
        # The report as ``repro serve bench`` would write it.
        self.reports[seed].append(json.loads(json.dumps(report, sort_keys=True)))

    def check(self) -> List[str]:
        failures: List[str] = []
        proposes = 0
        for seed, reports in self.reports.items():
            for k, report in enumerate(reports):
                metrics = report["metrics"]
                proposes += metrics["serve.proposes"]
                where = f"population {seed} run {k}"
                if not report["ok"]:
                    failures.append(f"{where}: report not ok")
                if metrics["serve.errors"] != 0:
                    failures.append(f"{where}: {metrics['serve.errors']} errors")
                if metrics["serve.tenants"] != SERVE_TENANTS:
                    failures.append(f"{where}: {metrics['serve.tenants']} of "
                                    f"{SERVE_TENANTS} tenants retired")
            for k, report in enumerate(reports[1:], start=1):
                failures.extend(compare_reports(
                    reports[0], report, f"population {seed} run 0", k))
        if len(self.latencies_s) != proposes:
            failures.append(f"{len(self.latencies_s)} proposal latencies "
                            f"for {proposes} proposals")
        committed = committed_serve_report()
        if committed is None:
            failures.append("BENCH_serve.json is missing")
        else:
            failures.extend(compare_reports(
                committed, self.reports[0][0], "BENCH_serve.json", 0))
        return failures

    def details(self) -> Dict[str, object]:
        return {"serve.mean_regret_s": {
                    str(seed): reports[0]["metrics"]["serve.mean_regret"]
                    for seed, reports in self.reports.items() if reports},
                "proposals": len(self.latencies_s)}


def committed_serve_report() -> Optional[dict]:
    path = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def compare_reports(expected: dict, got: dict, what: str, k: int) -> List[str]:
    """Deterministic report fields that differ, one message each."""
    failures = []
    for key in ("config", "ok", "slo", "per_strategy"):
        if expected.get(key) != got.get(key):
            failures.append(f"serve report {k} '{key}' differs from {what}")
    for name, value in expected["metrics"].items():
        if name in SERVE_WARMTH_METRICS:
            continue
        if got["metrics"].get(name) != value:
            failures.append(f"serve report {k} {name}: "
                            f"{got['metrics'].get(name)!r} != {what} {value!r}")
    return failures


WORKLOADS = {w.name: w for w in (ColdSweep, CompareB, Serve500)}
