"""Benchmark of adg2: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
exact-suites, maxsec-rough, maxsec-smooth, gauge-paths.

--trace 0 reports the end-to-end metrics:
  run_s        median seconds of the workload's job, after set-up, at the
               nominal speed of pace.py's reference kernel: the job's wall
               time is rescaled by the speed the kernel measures while the
               job runs, so that the host's speed phases do not show.  The
               job repeats while another repetition is expected to end
               within --seconds; a job longer than that runs once.
  setup_s      median over SETUP_PROBES fresh interpreters of the import of
               adg2 plus input generation, rescaled the same way by
               pace.py's Python kernel timed right after it.
  peak_rss_mb  peak resident memory of this process.
The raw wall times go to the record line (run_s_wall, setup_s_wall).
--trace 1 runs the job once untraced, then once with every layer function
wrapped (tracing.py), and reports the per-layer metrics of tracing.py,
including trace_overhead_frac = traced run_s / untraced run_s - 1.

Every repetition is checked by the workload's gate; an operation that raises
or fails its gate counts in "failed" and makes the run incorrect.  The last
stdout line is the JSON result; the environment and the per-repetition data
go to the line before it and to .bench_out/ in the checkout.  The exit code
is 0 for a correct run, 1 for an incorrect one and 2 when the checkout has
no adg2 sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def configure_threads() -> dict:
    """Run BLAS and OpenMP on one thread (within the cap of nproc) and unset
    ADG2_THREADS, before numpy is imported; returns what was found, for the
    environment record.

    One thread: the job then runs on the one thread whose speed pace.py
    samples, and does not compete with the host's other load for a second
    vCPU."""
    found = {k: os.environ.get(k) for k in THREAD_VARS + ("ADG2_THREADS",)}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ADG2_THREADS", None)
    return found


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, found_threads: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "threads_found": found_threads,
    }


def setup_seconds(workload: str, seed: int):
    """Set-up time of SETUP_PROBES fresh interpreters, one after another:
    (paced seconds, wall seconds) of each."""
    paced, wall = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds, rescaled = map(float, proc.stdout.split()[-2:])
        wall.append(seconds)
        paced.append(rescaled)
    return paced, wall


def measure(wl, inputs, seconds: float):
    """Repeat the job while the next repetition should end within seconds;
    returns the paced and the wall seconds of each repetition."""
    import pace
    import workloads

    outcome = workloads.Outcome()
    paced, wall = [], []
    with pace.Pace(wl.kernels) as probe:
        while True:
            t0 = time.perf_counter()
            result = wl.run(inputs)
            t1 = time.perf_counter()
            wall.append(t1 - t0)
            paced.append(probe.paced(t0, t1))
            outcome += wl.gate(inputs, result)
            del result  # a kept result would raise the next repetition's peak RSS
            if sum(wall) + wall[-1] > seconds:
                return paced, wall, outcome


def traced_run(wl, inputs):
    import tracing
    import workloads

    outcome = workloads.Outcome()
    t0 = time.perf_counter()
    result = wl.run(inputs)
    untraced = time.perf_counter() - t0
    outcome += wl.gate(inputs, result)
    del result

    tracer = tracing.Tracer()
    tracer.install()
    try:
        result, traced = tracer.run("job", wl.run, inputs)
    finally:
        tracer.uninstall()
    outcome += wl.gate(inputs, result)
    extras = wl.layer_extras(result)
    del result
    info, info_outcome = wl.info(inputs)
    outcome += info_outcome
    extras.update(info)
    extras["trace_overhead_frac"] = traced / untraced - 1.0
    metrics = tracing.layer_metrics(tracer.spans, extras)
    units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
    moves = {name: f"{metrics[name]:.6g} {unit}, should move {target}"
             for name, unit, _, target in tracing.LAYER_METRICS}
    detail = {"untraced_s": untraced, "traced_s": traced, "layers": moves}
    return tracer, metrics, units, outcome, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adg2" / "__init__.py").is_file():
        print(f"error: no adg2 sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    found_threads = configure_threads()
    import workloads  # numpy is first imported here, after the thread caps

    if Path(workloads.verify.__file__).resolve().parent != (SRC / "adg2").resolve():
        print(f"error: adg2 was imported from {workloads.verify.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed, found_threads)

    setups, setups_wall = ([], []) if args.trace else setup_seconds(
        args.workload, args.seed)
    inputs = wl.setup(args.seed)
    if args.trace:
        tracer, values, units, outcome, detail = traced_run(wl, inputs)
    else:
        durations, walls, outcome = measure(wl, inputs, args.seconds)
        values = {
            "run_s": statistics.median(durations),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        detail = {"run_s_each": durations, "run_s_wall": walls,
                  "setup_s_each": setups, "setup_s_wall": setups_wall}
    outcome += wl.control(inputs)

    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "detail": detail,
              "ops_failed_frac": outcome.failed / max(outcome.attempted, 1),
              "failures": outcome.reasons, "result": result}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    for reason in outcome.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in
                      ("workload", "environment", "detail", "ops_failed_frac")}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
