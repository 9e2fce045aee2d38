"""Run one workload of the dipolegauge benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload dicke_scan --seed 0 --seconds 15 --trace 0

--trace 0 repeats the workload's pass with tracing off until --seconds have
passed (and at least the workload's minimum number of passes, one to three)
and reports the end-to-end metrics named in
BENCHMARK.json: setup_s, peak_rss_mb and the workload's three legs as
leg1_s, leg2_s and leg3_s.  Every time is a wall time scaled to a reference
host speed, which probes measure around each timed call (hostclock.py);
the run record keeps the speeds they found.  --trace 1 runs one untraced
and one traced pass and reports every per-layer metric (a layer the
workload does not exercise reads 0), with the tracing overhead as
trace.overhead_ratio.

Every output is checked; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  Exit code 0 when every check
passed, 1 when one failed, 2 when this checkout cannot be benchmarked (then
nothing is printed on stdout).  A record of the run (provenance, load
average, per-pass timings, failures) and the spans of a traced run are
written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
LEG_SLOTS = ("leg1_s", "leg2_s", "leg3_s")
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class NotBenchmarkable(Exception):
    """The checkout lacks the library or the benchmark's own files."""


def load_library():
    """Import the benchmark modules against this checkout's src/ and nothing else."""
    if not (SRC / "dipolegauge" / "__init__.py").is_file():
        raise NotBenchmarkable(f"no dipolegauge package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import tracing
        import workloads
    except ImportError as exc:
        raise NotBenchmarkable(f"cannot import the library: {exc}") from None
    library = Path(workloads.dipolegauge.__file__).resolve()
    if SRC.resolve() not in library.parents:
        raise NotBenchmarkable(f"dipolegauge was imported from {library}, not from {SRC}")
    return tracing, workloads


def measure_setup(workloads, name: str, seed: int) -> list[float]:
    """Spawn-to-ready time of fresh interpreters that import and build inputs."""
    samples = []
    for _ in range(SETUP_PROBES):
        with workloads.CLOCK.timing(probe_during=False) as reading:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=workloads.child_env(),
                cwd=ROOT,
            )
            line = proc.stdout.readline()
            reading.stop()
            _, err = proc.communicate(timeout=120)  # the closing probe waits for the child's exit
        if line.strip() != b"ready" or proc.returncode != 0:
            raise NotBenchmarkable(f"set-up probe failed: {err.decode(errors='replace')[-800:]}")
        samples.append(reading.seconds)
    return samples


def provenance() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
    }


def run_untraced(tracing, workload, seconds: int, checks) -> tuple[dict, float, dict]:
    """Leg values, peak RSS (MB) through the first pass, and every pass's samples.

    Later passes run on a heap the oracles have grown, so their peak would
    depend on how many passes fit in the run.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    rss_kb = None
    passes = 0
    while passes < workload.min_passes or time.perf_counter() < deadline:
        for leg, values in workload.run_pass(tracing.NullTracer(), checks).items():
            samples[leg].extend(values)
        passes += 1
        if rss_kb is None:
            rss_kb = workload.peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return workload.summarize(samples), rss_kb / 1024.0, dict(samples)


def run_traced(tracing, workload, checks, spans_path: Path) -> tuple[dict, dict]:
    start = time.perf_counter()
    untraced = workload.summarize(workload.run_pass(tracing.NullTracer(), checks))
    untraced_wall = time.perf_counter() - start
    tracer = tracing.Tracer()
    with tracer.patched(workload.trace_targets(tracer)):
        start = time.perf_counter()
        workload.run_pass(tracer, checks)
        traced_wall = time.perf_counter() - start
    workload.run_layer_probes(tracer, checks)
    layer = workload.layer_metrics(tracing.SpanTable(tracer), untraced)
    layer["trace.overhead_ratio"] = traced_wall / untraced_wall
    peak_alloc = workload.run_alloc_pass()
    if peak_alloc is not None:
        layer["ensemble.geometry_peak_alloc_mb"] = peak_alloc
    tracer.write(spans_path)
    return layer, untraced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        tracing, workloads = load_library()
        if args.workload not in workloads.WORKLOADS:
            raise NotBenchmarkable(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
        OUT.mkdir(exist_ok=True)
        load_before = os.getloadavg()
        setup = [] if args.trace else measure_setup(workloads, args.workload, args.seed)
    except (NotBenchmarkable, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    checks = workloads.Checks()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    named: dict[str, float] = {}
    if args.trace:
        workloads.CLOCK.probe_during_calls = False  # the spans must not hold probes
        values, untraced = run_traced(tracing, workload, checks, OUT / f"spans-{stem}.jsonl")
        wanted = spec["per_layer"]
        unknown = set(values) - {metric["name"] for metric in wanted}
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        record["untraced_legs"] = untraced
    else:
        legs, rss_mb, samples = run_untraced(tracing, workload, args.seconds, checks)
        values = {"setup_s": median(setup), "peak_rss_mb": rss_mb}
        values.update({slot: legs[leg] for slot, leg in zip(LEG_SLOTS, workload.legs)})
        named = {leg: legs[leg] for leg in workload.legs}
        wanted = spec["end_to_end"]
        record.update(leg_samples=samples, setup_samples=setup)
    metrics = {metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]} for metric in wanted}

    record.update(
        provenance(),
        host_speed=workloads.CLOCK.summary(),
        load_before=load_before,
        load_after=os.getloadavg(),
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.messages,
        metrics=metrics,
    )
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    load = " -> ".join(" ".join(f"{v:.2f}" for v in avg) for avg in (record["load_before"], record["load_after"]))
    speed = record["host_speed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} nproc={record['nproc']} load {load}")
    if speed["timed_calls"]:
        print(f"  host speed {speed['speed_median']:.3f} of reference (median of {speed['timed_calls']} timed calls)")
    for name, value in named.items():
        print(f"  {name:<32} {value:.6g} s")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_ratio {checks.failed / max(checks.attempted, 1):.6g} ({checks.failed} of {checks.attempted} ops)")
    for message in checks.messages[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
