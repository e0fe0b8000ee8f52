"""securesum benchmark: fixed CLI job lists, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run imports `securesum.cli` from `src/` once and drives `main(argv)`
in-process: a closed loop, one client, no threads of its own. It runs the
workload's job list in passes until `--seconds` have gone by (at least
`MIN_PASSES` passes), checks every job's output, and prints one JSON object
as the last line of stdout. With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead. See README.md.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

from check import check_job
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
# A run stops starting passes once this much time has gone by, so it ends
# well inside the 180 s a run may take even if the program gets much slower.
BUDGET_S = 120.0
# Set-up is sampled after every pass, so its median spans the whole run.
SETUP_PER_PASS = 3
TAIL_BEYOND = 10
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
              "import securesum.cli; print(time.perf_counter() - t)")


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of `samples` beyond it."""
    return max((100 * (samples - TAIL_BEYOND)) // samples, 0)


def percentile(values, q: int) -> float:
    """Nearest-rank q-th percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)  # ceil without float rounding
    return ordered[max(rank - 1, 0)]


def run_job(main, argv: list[str], wrap=None) -> tuple[float, object, str]:
    """(seconds, exit status, stdout) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = wrap(main, argv) if wrap else main(argv)
    except SystemExit as e:  # argparse rejects a command line this way
        status = e.code
    except Exception as e:  # a traceback is a failed job, not a failed run
        status = repr(e)
    seconds = time.perf_counter() - t0
    if status != 0:
        status = f"{status}: {err.getvalue().strip()[-300:]}"
    return seconds, status, out.getvalue()


class Pass:
    """Job times of one pass over the job list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.times: list[float] = []
        self.wall = 0.0


class Runner:
    """Runs passes, checks outputs, and counts failed jobs."""

    def __init__(self, main, jobs):
        self.main, self.jobs = main, jobs
        self.argvs = [job.argv() for job in jobs]
        self.reference: list[str | None] = [None] * len(jobs)
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> Pass:
        result = Pass(traced=tracer is not None)
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            for i, argv in enumerate(self.argvs):
                seconds, status, text = run_job(self.main, argv, tracer.job if tracer else None)
                result.times.append(seconds)
                self._check(i, status, text)
        finally:
            result.wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        return result

    def _check(self, i: int, status, text: str) -> None:
        # Outside the job's timed region; only the first output of a job is
        # checked in full, and every repeat must match it byte for byte.
        self.attempted += 1
        argv = " ".join(self.argvs[i])
        if status != 0:
            self.failures.append(f"{argv}: exit {status}")
        elif self.reference[i] is None:
            self.reference[i] = text
            problems = check_job(self.jobs[i], text)
            if problems:
                self.failures.append(f"{argv}: {'; '.join(problems[:3])}")
        elif text != self.reference[i]:
            self.failures.append(f"{argv}: output differs from the same command's first output")


def measure_setup(count: int) -> list[float]:
    """Times for fresh interpreters to import securesum.cli."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout))
    return samples


def import_cli():
    sys.path.insert(0, str(SRC))
    import securesum.cli

    if not Path(securesum.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"securesum was imported from {securesum.cli.__file__}, not {SRC}")
    return securesum.cli.main


def context(args, passes: list[Pass], jobs: int) -> dict:
    untraced = sum(not p.traced for p in passes)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "commit": commit,
        "src_lines": sum(len(f.read_text().splitlines()) for f in SRC.rglob("*.py")),
        "jobs_per_pass": jobs,
        "passes": untraced,
        "traced_passes": len(passes) - untraced,
        "job_samples": jobs * untraced,
        "job_tail_percentile": tail_percentile(jobs * MIN_PASSES),
    }


def end_to_end(passes: list[Pass], jobs: int, setup_s: float, attempted: int, failed: int) -> dict:
    times = [t for p in passes for t in p.times]
    return {
        "wall_s": (median(p.wall for p in passes), "s"),
        "job_p50_s": (median(times), "s"),
        # The percentile is fixed by the job count of MIN_PASSES passes, so
        # it does not shift when a faster program fits more passes in a run.
        "job_tail_s": (percentile(times, tail_percentile(jobs * MIN_PASSES)), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "securesum" / "cli.py").is_file():
        print(f"no securesum sources under {SRC}", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload](args.seed)
    cli_main = import_cli()
    setup: list[float] = []

    runner = Runner(cli_main, jobs)
    tracer = Tracer() if args.trace else None
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass())
        if tracer is not None:
            passes.append(runner.run_pass(tracer))
        else:
            setup += measure_setup(SETUP_PER_PASS)
        elapsed = time.perf_counter() - start
        untraced = sum(not p.traced for p in passes)
        if untraced >= MIN_PASSES and elapsed >= args.seconds:
            break
        if elapsed + passes[-1].wall * (2 if tracer else 1) > BUDGET_S:
            break

    failed = len(runner.failures)
    ctx = context(args, passes, len(jobs))
    if tracer is None:
        metrics = end_to_end(passes, len(jobs), median(setup), runner.attempted, failed)
    else:
        traced = [p for p in passes if p.traced]
        metrics = layer_metrics(tracer, len(traced))
        overhead = median(p.wall for p in traced) - median(p.wall for p in passes if not p.traced)
        metrics["trace_overhead_s"] = (overhead, "s")
        ctx["absent"] = tracer.absent
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl", ctx)

    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({"context": ctx, "failures": runner.failures[:20]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
