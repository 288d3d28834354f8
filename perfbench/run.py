"""Closed-loop benchmark of hkforge: one client, one process, one job at a time.

Run it from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

`--trace 0` times whole passes over the seeded job list until at least
MIN_SAMPLES jobs have run and another pass would end after `--seconds`, and
prints the end-to-end metrics, with every time corrected for the host's speed
(see hostspeed.py).  `--trace 1` runs the list once, each job both
untraced and traced, and prints the per-layer metrics (see tracing.py).  Every job's output is
checked; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when the benchmark
ran, whatever the checks found, and 2 when hkforge cannot be imported from
this checkout's `src/` or the workload is unknown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any

from hostspeed import Sampler, reference_sample

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# At least ten jobs lie beyond p75 when a run holds 40 jobs.
MIN_SAMPLES = 40
# setup_s is the median over this many fresh processes.
SETUP_PROBES = 7
# reference samples a set-up probe takes after its set-up
PROBE_AFTER = 5


def _load_hkforge():
    """Import hkforge from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import hkforge
    except ImportError as exc:
        _fail(f"cannot import hkforge from {SRC}: {exc}")
    origin = os.path.dirname(os.path.abspath(hkforge.__file__))
    if origin != os.path.join(SRC, "hkforge"):
        _fail(f"hkforge came from {origin}, not from {SRC}")
    return hkforge


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="smoke mode: run only the first JOBS jobs of the list, in one pass",
    )
    # internal: time this process's set-up, measured from the given
    # time.perf_counter() stamp taken by the parent just before it started us
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Median time from process start to a built job list, over fresh
    processes; returns (corrected, wall)."""
    walls, corrected = [], []
    for _ in range(SETUP_PROBES):
        stamp = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe", repr(stamp)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        wall, fixed = map(float, probe.stdout.split()[-2:])
        walls.append(wall)
        corrected.append(fixed)
    return statistics.median(corrected), statistics.median(walls)


@dataclass
class Run:
    wall: float  # seconds, less the host-speed samples taken inside the job
    result: Any
    error: Exception | None
    corrected: float | None = None  # seconds at the reference speed


def _run_job(job, index, tracer=None, sampler=None) -> Run:
    """Run one job, corrected for the host's speed when given a sampler."""
    if tracer is not None:
        tracer.job = index
    if sampler is not None:
        sampler.start()
    start = time.perf_counter()
    try:
        result, error = job.compute(), None
    except Exception as exc:  # a job that raises counts as failed; keep going
        result, error = None, exc
    end = time.perf_counter()
    wall, corrected = sampler.stop(start, end) if sampler is not None else (end - start, None)
    if error is not None:
        print(f"perfbench: job {job.label!r} raised:", file=sys.stderr)
        traceback.print_exception(error, file=sys.stderr)
    return Run(wall, result, error, corrected)


def _evaluate(workload, runs):
    """Check one pass; return (rendered outputs, per-job ok flags)."""
    texts, oks = [], []
    for job, run in zip(workload.jobs, runs):
        if run.error is not None:
            texts.append(f"error: {run.error!r}")
            oks.append(False)
            continue
        texts.append(job.render(run.result))
        oks.append(bool(job.check(run.result)))
    for index in workload.cross_check([run.result for run in runs]):
        oks[index] = False
    return texts, oks


def _digest(workload, texts) -> str:
    h = hashlib.sha256()
    for job, text in zip(workload.jobs, texts):
        h.update(f"{job.label}\n{text}\n".encode())
    return h.hexdigest()


def _check_passes(workload, passes):
    """Check every pass; a pass whose outputs differ from the first one fails."""
    reference, ok_all = None, []
    for runs in passes:
        texts, oks = _evaluate(workload, runs)
        if reference is None:
            reference = texts
        oks = [ok and text == ref for ok, text, ref in zip(oks, texts, reference)]
        ok_all += oks
    for job, ok in zip(workload.jobs * len(passes), ok_all):
        if not ok:
            print(f"perfbench: job {job.label!r} failed its check", file=sys.stderr)
    return _digest(workload, reference), ok_all


def _pass(workload, sampler=None):
    return [_run_job(job, i, sampler=sampler) for i, job in enumerate(workload.jobs)]


def _timed(workload, seconds):
    """Whole passes, corrected for the host's speed, until MIN_SAMPLES jobs
    have run and another pass would end after `seconds`."""
    sampler = Sampler()
    for _ in range(50):  # warm the reference computation up
        reference_sample()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_pass(workload, sampler))
        elapsed = time.perf_counter() - start
        samples = len(passes) * len(workload.jobs)
        if samples >= MIN_SAMPLES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _traced(workload, tracer):
    """One pass, each job both untraced and traced, the two orders alternating
    from job to job; returns (untraced, traced)."""
    plain, traced = [], []
    for i, job in enumerate(workload.jobs):
        if i % 2:
            with tracer:
                traced.append(_run_job(job, i, tracer))
        plain.append(_run_job(job, i))
        if not i % 2:
            with tracer:
                traced.append(_run_job(job, i, tracer))
    return plain, traced


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe is not None:
        sampler = Sampler()
        sampler.start()
    hkforge = _load_hkforge()
    import workloads

    if args.setup_probe is not None:
        workloads.build(args.workload, args.seed)
        print(*sampler.stop(args.setup_probe, time.perf_counter(), after=PROBE_AFTER))
        return 0

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hkforge": hkforge.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    print(json.dumps({"env": env}, sort_keys=True))
    workload = workloads.build(args.workload, args.seed)
    if args.jobs is not None:
        del workload.jobs[args.jobs :]
    head = f"{args.workload} seed={args.seed}"

    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        plain, traced = _traced(workload, tracer)
        digest, oks = _check_passes(workload, [plain, traced])
        metrics = {
            name: _metric(value, unit) for name, (value, unit) in layer_metrics(tracer.spans).items()
        }
        plain_s = sum(run.wall for run in plain)
        traced_s = sum(run.wall for run in traced)
        metrics["trace.overhead_ratio"] = _metric(traced_s / plain_s, "ratio")
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.dump(spans_path)
        print(f"# {head}: {len(workload.jobs)} jobs traced, spans in {os.path.relpath(spans_path, ROOT)}")
    else:
        setup_s, setup_wall = _setup_s(args.workload, args.seed)
        if args.jobs is None:
            passes = _timed(workload, args.seconds)
        else:
            passes = [_pass(workload, Sampler())]
        times = [run.corrected for runs in passes for run in runs]
        walls = [run.wall for runs in passes for run in runs]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digest, oks = _check_passes(workload, passes)
        metrics = {
            "jobs_per_s": _metric(sum(oks) / sum(times), "1/s"),
            "job_s.p50": _metric(statistics.median(times), "s"),
            "job_s.p75": _metric(statistics.quantiles(times, n=4)[2], "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "setup_s": _metric(setup_s, "s"),
        }
        print(f"# {head}: {len(passes)} passes x {len(workload.jobs)} jobs = {len(walls)} samples")
        print(
            f"# uncorrected wall: jobs_per_s {sum(oks) / sum(walls):.6g} 1/s, "
            f"job_s.p50 {statistics.median(walls):.6g} s, "
            f"job_s.p75 {statistics.quantiles(walls, n=4)[2]:.6g} s, setup_s {setup_wall:.6g} s; "
            f"host slowdown {sum(walls) / sum(times):.4f}"
        )

    attempted, failed = len(oks), oks.count(False)
    print(f"# digest sha256:{digest}")
    print(f"# fail_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} jobs)")
    for name, m in metrics.items():
        print(f"# {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
