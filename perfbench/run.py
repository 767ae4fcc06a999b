"""Seeded end-to-end benchmark of the rigidmetrics CLI.

Run from the repository root:

    python3 perfbench/run.py --workload certify-spread --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``certify-spread``, ``certify-clustered``, ``oracle-coded``,
``discrete-rational``.  Each runs as a closed loop with one caller on one
thread: the next job starts when the previous one has finished.  Jobs drive
``rigidmetrics.cli.main(argv)`` in this process, from input file to output
file, with the package imported from ``src/``; module-level caches persist
across jobs as they would for a library caller, so an untimed warm-up job
runs during set-up.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-module ones from a separate traced pass, whose spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.  The line before it holds
the environment and run details (job count, resolved tail percentile,
failure ratio, output digest, absent trace points).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from clock import REFERENCE_S, Clock
from tracing import MODULES, Tracer
from workloads import WORKLOADS, Corpus, run_job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 3
# keeps every run inside the three-minute limit on a much slower commit
HARD_STOP_S = 150.0
# share of --seconds spent on the untraced reference pass of a traced run
REFERENCE_SHARE = 1 / 8


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_rank(jobs: int, preferred: int) -> int:
    """The workload's tail percentile, or the highest multiple of 5 below
    it that still has at least ten jobs beyond it (50 at the least)."""
    for p in range(preferred, 50, -5):
        if jobs * (100 - p) >= 1000:
            return p
    return 50


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "rigidmetrics").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "rigidmetrics_commit": _commit(),
        "rigidmetrics_source_sha256": source.hexdigest(),
    }


def _measure(cli_main, clock, jobs_source, seconds, min_cycles, started, probe=None,
             first_cycle=0):
    """Whole cycles of jobs until ``seconds`` pass and ``min_cycles`` ran.

    Returns the results, the cycle count, and the peak memory in MiB at the
    end of the first ``min_cycles`` cycles: later cycles only add cache
    entries, whose number would tie the figure to the machine's speed.
    """
    results, marks, cycle, peak_mib = [], [], first_cycle, None
    deadline = time.perf_counter() + seconds
    while (cycle - first_cycle < min_cycles or time.perf_counter() < deadline) \
            and time.perf_counter() - started < HARD_STOP_S:
        for job in jobs_source.cycle(cycle):
            marks.append(clock.mark())
            results.append(run_job(cli_main, job, probe))
        cycle += 1
        if cycle - first_cycle == min_cycles:
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock.calibrate()
    for result, mark in zip(results, marks):
        result.scale = clock.factor(mark)
    if peak_mib is None:  # stopped early by HARD_STOP_S
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return results, cycle - first_cycle, peak_mib


def _summary(results, workload, cycles) -> dict:
    prefix = results[: workload.min_cycles * len(workload.shapes)]
    digest = hashlib.sha256(b"".join(r.digest for r in prefix)).hexdigest()
    problems = [p for r in results for p in r.problems]
    return {
        "jobs": len(results),
        "cycles": cycles,
        "failed_ratio": sum(r.failed for r in results) / len(results),
        "output_bytes_jobs": len(prefix),
        "outputs_sha256": digest,
        "problems": problems[:10],
    }


def _timings(results, tail: int, scaled: bool) -> dict:
    build = [r.build_s * (r.scale if scaled else 1) for r in results]
    check = [r.check_s * (r.scale if scaled else 1) for r in results]
    return {
        "build_s.p50": (percentile(build, 50), "s"),
        "build_s.tail": (percentile(build, tail), "s"),
        "check_s.p50": (percentile(check, 50), "s"),
        "check_s.tail": (percentile(check, tail), "s"),
        "pairs_per_s": (sum(r.pairs for r in results) / (sum(build) + sum(check)), "pairs/s"),
    }


def _plain_metrics(results, peak_mib, workload, details) -> dict:
    tail = tail_rank(len(results), workload.tail_percentile)
    details["tail_percentile"] = tail
    details["jobs_beyond_tail"] = math.floor(len(results) * (100 - tail) / 100)
    details["raw"] = {k: v for k, (v, _) in _timings(results, tail, scaled=False).items()}
    prefix = results[: workload.min_cycles * len(workload.shapes)]
    metrics = _timings(results, tail, scaled=True)
    metrics["output_bytes"] = (sum(r.output_bytes for r in prefix), "bytes")
    metrics["peak_mem_mb"] = (peak_mib, "MiB")
    return metrics


def _traced_metrics(cli_main, clock, jobs_source, seconds, started, trace_path, details):
    """Untraced reference cycles, then as many traced cycles of fresh inputs.

    Per-job times are scaled by the traced jobs' mean calibration factor;
    the attribution ratio compares raw profile time with raw traced time.
    Returns the metrics, every job's result (both passes count towards
    ``failed``) and the cycle count.
    """
    reference, cycles, _ = _measure(
        cli_main, clock, jobs_source, seconds * REFERENCE_SHARE, 1, started)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, _ = _measure(
            cli_main, clock, jobs_source, 0, cycles, started, tracer.probe, cycles)
    finally:
        tracer.uninstall()
    tracer.write_spans(trace_path)

    jobs = len(traced)
    raw_wall = sum(r.build_s + r.check_s for r in traced)
    per_job = statistics.fmean(r.scale for r in traced) / jobs
    reference_job = statistics.fmean((r.build_s + r.check_s) * r.scale for r in reference)
    traced_job = statistics.fmean((r.build_s + r.check_s) * r.scale for r in traced)
    self_s = tracer.module_self_seconds()
    calls = tracer.profiled_calls()
    counts = tracer.counts
    cache = getattr(tracer.modules.get("coded"), "_support_cache", None)
    if cache is None:
        tracer.absent.append("coded.support_cache_entries")

    metrics = {}
    for name in ("partition", "hub_metric", "amalgamate", "sup_bound",
                 "rigidity", "independence", "replay"):
        metrics[f"glue.{name}_s"] = (tracer.span_seconds(f"glue.{name}") * per_job, "s/job")
    metrics["glue.records"] = (counts["glue.records"] / jobs, "1/job")
    metrics["glue.witness_calls"] = (counts["glue.witness_calls"] / jobs, "1/job")
    metrics["glue.witness_hit_ratio"] = (
        counts["glue.witness_hits"] / max(1, counts["glue.witness_calls"]), "ratio")
    for label, value in calls.items():
        metrics[label] = (value / jobs, "1/job")
    metrics["coded.compare_unresolved"] = (counts["coded.compare_unresolved"] / jobs, "1/job")
    metrics["coded.support_cache_entries"] = (len(cache) if cache is not None else 0, "count")
    metrics["verify.triples"] = (counts["verify.triples"] / jobs, "1/job")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (self_s.get(module, 0.0) * per_job, "s/job")
    metrics["trace.overhead_ratio"] = (traced_job / reference_job, "ratio")
    metrics["trace.attributed_ratio"] = (sum(self_s.values()) / raw_wall, "ratio")

    details.update({
        "reference_jobs": len(reference),
        "traced_jobs": jobs,
        "traced_wall_s": raw_wall,
        "module_self_s": {k: round(v, 6) for k, v in sorted(self_s.items())},
        "absent": sorted(set(tracer.absent)),
        "trace_file": str(trace_path.relative_to(ROOT)),
    })
    return metrics, reference + traced, 2 * cycles


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "rigidmetrics" / "cli.py").is_file():
        sys.stderr.write(f"no rigidmetrics sources under {SRC}; run from a full checkout\n")
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import rigidmetrics.cli  # the package under test, from src/
    import_s = time.perf_counter() - t0
    cli_main = rigidmetrics.cli.main

    clock = Clock()
    import_s *= clock.factor(clock.calibrate())
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup_runs, jobs_source = [], None
        for rep in range(SETUP_REPEATS):
            if jobs_source is not None:
                shutil.rmtree(jobs_source.workdir)
            mark = clock.calibrate()
            t0 = time.perf_counter()
            jobs_source = Corpus(workload, args.seed, work / f"setup{rep}")
            warm = run_job(cli_main, jobs_source.warmup)
            setup_runs.append(time.perf_counter() - t0)
            clock.calibrate()
            setup_runs[-1] *= clock.factor(mark)
            if warm.failed:
                sys.stderr.write(f"warm-up job failed: {warm.problems}\n")
                return 1
        setup_s = import_s + statistics.median(setup_runs)

        details = {"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "env": _environment(), "import_s": import_s,
                   "setup_s_runs": setup_runs}
        if args.trace:
            trace_path = WORK / f"trace-{workload.name}-seed{args.seed}.json"
            metrics, results, cycles = _traced_metrics(
                cli_main, clock, jobs_source, args.seconds, started, trace_path, details)
        else:
            results, cycles, peak_mib = _measure(
                cli_main, clock, jobs_source, args.seconds, workload.min_cycles, started)
            metrics = {"setup_s": (setup_s, "s")}
            metrics.update(_plain_metrics(results, peak_mib, workload, details))
        details.update(_summary(results, workload, cycles))
        samples = clock.samples
        details["calibration_s"] = {
            "reference": REFERENCE_S, "runs": len(samples),
            "median": statistics.median(samples), "min": min(samples), "max": max(samples)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r.failed for r in results)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
