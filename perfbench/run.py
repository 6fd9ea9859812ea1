"""Repository benchmark: where host time goes, workload by workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-sweep --seed 0 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and which
metric each layer should move):

* ``cold-sweep`` -- cold measurement-bank builds of scenario b and then
  c at default tiles;
* ``compare-b`` -- the paper's seven strategies plus the All-nodes and
  Oracle baselines on b's bank;
* ``serve-500`` -- 500 closed-loop tenants against the tuning service.

``--trace 0`` measures the end-to-end metrics with no wrapper but the
few probes those metrics need, and divides the host's speed out of
every time (see ``hostspeed.py``).  ``--trace 1`` runs the timed part once
untraced and once more with a span wrapper around every layer entry
point, and reports per-layer metrics, a self-time table and the tracing
overhead.  The program's own tracer stays off in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records every setting that changes the run's bytes or timing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per untraced run; ``setup_s`` reports their median.  One
#: serve-500 set-up sweeps the banks of all 16 table scenarios (10-24 s
#: on a 2-core host), so it runs once to keep a run inside its time limit.
SETUP_REPEATS = {"cold-sweep": 3, "compare-b": 3, "serve-500": 1}

#: Single-threaded numerical libraries: the load is one process.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Modules imported before any set-up, so each set-up costs the same.
PROGRAM_MODULES = (
    "repro.evaluate.parallel", "repro.fuzz.properties", "repro.gp.regression",
    "repro.measure.batch", "repro.measure.sweep", "repro.runtime.simulator",
    "repro.serve.loadgen", "repro.serve.service", "repro.strategies.registry",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be 0 or more")
    return args


def run_passes(workload, seconds: float, min_passes: int, sampler) -> tuple:
    """Repeat ``run_pass`` until ``seconds`` have passed and at least
    ``min_passes`` ran; return the passes' total time and count."""
    first = len(workload.pass_s)
    t0 = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - t0 < seconds:
        gc.collect()
        workload.run_timed_pass(passes, sampler)
        passes += 1
    return sum(workload.pass_s[first:]), passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a termination request into SystemExit so the cache is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for name in THREAD_ENV:
        os.environ[name] = "1"
    import hostspeed
    from workloads import WORKLOADS

    # Untraced runs divide the host's speed out of every time; traced
    # runs report raw times, which the span wrappers share.
    sampler = hostspeed.Sampler(WORKLOADS[args.workload].host_slices)
    cache_root = ROOT / ".perfbench_cache" / f"{args.workload}-{os.getpid()}"
    try:
        with sampler if not args.trace else contextlib.nullcontext():
            return measure(args, cache_root, sampler)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
        try:
            cache_root.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def measure(args, cache_root: Path, sampler) -> int:
    mark = sampler.mark()
    sys.path.insert(0, str(ROOT / "src"))
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    from layers import LayerTracer, Patches, render_table
    from workloads import WORKLOADS

    import_s, import_scale = sampler.since(mark)
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, cache_root)
    for name, value in workload.env().items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    tables = []

    # -- set-up --------------------------------------------------------------------
    setup_each, setup_scale = [], []
    repeats = 1 if args.trace else SETUP_REPEATS[cls.name]
    for _ in range(repeats):
        mark = sampler.mark()
        if args.trace:
            setup_tracer = LayerTracer()
            with Patches() as patches:
                setup_tracer.install(patches)
                workload.setup()
        else:
            workload.setup()
        seconds, scale = sampler.since(mark)
        setup_each.append(seconds)
        setup_scale.append(scale)
    if args.trace:
        tables.append(render_table(
            f"{cls.name} set-up self time",
            setup_tracer.self_time_table(setup_each[0]), setup_each[0]))

    # -- timed part ----------------------------------------------------------------
    with Patches() as patches:
        workload.probes(patches)
        if not args.trace:
            timed_s, passes = run_passes(workload, args.seconds,
                                         cls.min_passes, sampler)
        else:
            untraced_s, passes = run_passes(workload, args.seconds / 2, 1,
                                            sampler)
            tracer = LayerTracer()
            with Patches() as layer_patches:
                tracer.install(layer_patches)
                timed_s, _ = run_passes(workload, 0.0, passes, sampler)

    # -- checks and report ---------------------------------------------------------
    failures = workload.check()
    failed = workload.failed_ops + len(failures)
    raw = {}
    if args.trace:
        rows = tracer.self_time_table(timed_s)
        tables.append(render_table(f"{cls.name} timed part self time",
                                   rows, timed_s))
        metrics = tracer.metrics(timed_s)
        metrics["obs.trace_overhead_pct"] = 100.0 * (timed_s / untraced_s - 1)
        metrics["evaluate.cache.hit_ratio"] = workload.hit_ratio
    else:
        metrics = workload.e2e(workload.pass_scale)
        metrics["setup_s"] = import_s * import_scale + statistics.median(
            s * k for s, k in zip(setup_each, setup_scale))
        metrics["peak_rss_mb"] = peak_rss_mb()
        raw = workload.e2e([1.0] * len(workload.pass_s))
        raw["setup_s"] = import_s + statistics.median(setup_each)
    record = {
        "workload": cls.name,
        "why": cls.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "settings": settings(workload, cache_root),
        "import_s": import_s,
        "setup_s_each": setup_each,
        "passes": passes,
        "pass_s": workload.pass_s,
        "pass_ops": workload.pass_ops,
        "timed_s": timed_s,
        "host_scale": {"import": import_scale, "setup": setup_scale,
                       "passes": workload.pass_scale,
                       "slices": len(sampler.slices),
                       "slice_kinds": list(cls.host_slices),
                       "reference_slice_s": sampler.reference_s},
        "raw_metrics": raw,
        "latency_samples": len(workload.latencies_s),
        "latency_tail_quantile": cls.tail_q,
        "details": workload.details(),
        "failures": failures,
        "notes": workload.notes,
    }
    for table in tables:
        print(table)
    print(json.dumps({"perfbench": record}, sort_keys=True))
    units = metric_units(args.trace)
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
              "are not both reported and listed in BENCHMARK.json",
              file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0,
        "attempted": int(workload.attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for the mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = bench["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in listed}


def settings(workload, cache_root: Path) -> dict:
    """Every knob that changes the run's bytes or timing."""
    import numpy

    from repro import config
    from repro.runtime.simfast import simulator_factory

    out = {
        "tiles_101": config.tiles_for("101"),
        "tiles_128": config.tiles_for("128"),
        "default_engine": simulator_factory().__name__,
        "cache_dir": str(cache_root.relative_to(ROOT)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
    }
    for name in ("REPRO_TILES_101", "REPRO_TILES_128", "REPRO_SIMFAST",
                 "REPRO_SWEEP_WORKERS") + THREAD_ENV:
        out[name] = os.environ.get(name)
    out.update(workload.settings())
    return out


if __name__ == "__main__":
    sys.exit(main())
