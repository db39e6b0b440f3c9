"""Benchmark entry point: one workload run in a fresh process.

    python3 bench/run.py --workload loop-9 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; ``tailcorr`` is imported from its
``src``.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up time, wall
time of one round, peak memory); with ``--trace 1`` they are the per-layer
ones, read from spans around each call into a ``tailcorr`` module.  The
line before it is the run record: machine, versions, thread settings,
seed, checks, failures and output digests.  See README.md for the
workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy loads, in this process and every child it starts:
# one BLAS / OpenMP thread keeps timings steady on a shared machine and is
# within ``nproc`` anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# One core for the whole run, children included: the host's cores do not
# run at the same speed, and the round-time normalization (tracer.SpeedClock)
# must time its reference loop on the core that does the work.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("loop-9", "grid-1024", "analytic")
#: Set-up is measured this many times per run and reported as the median.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_tailcorr():
    """Import the checkout's ``tailcorr``; returns it and the import time."""
    if not (SRC / "tailcorr" / "__init__.py").is_file():
        sys.exit(f"bench: no tailcorr sources under {SRC}; run from the root "
                 "of a tailcorr checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tailcorr
    elapsed = time.perf_counter() - start
    if Path(tailcorr.__file__).resolve().parent != SRC / "tailcorr":
        sys.exit(f"bench: imported tailcorr from {tailcorr.__file__}, "
                 f"not from {SRC}")
    return tailcorr, elapsed


def setup_in_fresh_process(args) -> float | None:
    """One set-up sample from a child interpreter (``--setup-only``)."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "1",
               "--setup-only"]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_rounds(workload, tracer, seconds: float, traced: bool):
    """Repeat ``workload.round`` until ``seconds`` have passed.  A traced
    run alternates untraced and traced rounds, so it measures the tracing
    overhead itself, and keeps at least one of each."""
    durations: dict[bool, list[float]] = {False: [], True: []}
    normalized: list[float] = []
    start = time.perf_counter()
    index = 0
    while True:
        tracer.enabled = traced and index % 2 == 1
        tracer.round = index
        tracer.clock.start()
        begin = time.perf_counter()
        complete = workload.round(index, tracer)
        elapsed = time.perf_counter() - begin
        at_nominal = tracer.clock.stop()
        if not complete:
            break
        durations[tracer.enabled].append(elapsed)
        if not tracer.enabled:
            normalized.append(at_nominal)
        index += 1
        if time.perf_counter() - start >= seconds and (
                not traced or durations[True]):
            break
    tracer.enabled = traced
    return durations, normalized


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def blas(module) -> object:
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return {k: {f: deps[k].get(f) for f in
                        ("name", "version", "openblas configuration")}
                    for k in ("blas", "lapack") if k in deps}
        except (TypeError, KeyError, AttributeError):
            return "unavailable"

    return {"git_sha": git_sha(), "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "cpu_affinity": sorted(os.sched_getaffinity(0))}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    tc, import_s = import_tailcorr()
    import layers
    from tracer import Checks, OpFailed, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    traced = bool(args.trace)
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer, checks = Tracer(enabled=traced), Checks()
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    try:
        start = time.perf_counter()
        workload.setup(tc, args.seed, tracer, workdir)
        setup_samples = [import_s + time.perf_counter() - start]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 0
        for _ in range(0 if traced else SETUP_SAMPLES - 1):
            sample = setup_in_fresh_process(args)
            checks.add("set-up sample in a fresh process", sample is not None)
            if sample is not None:
                setup_samples.append(sample)

        seconds = args.seconds / 2.0 if traced else args.seconds
        durations, normalized = run_rounds(workload, tracer, seconds, traced)
        checks.add("at least one complete round", bool(durations[False]))
        if durations[False]:
            tracer.enabled = False  # the checks are not measured
            try:
                workload.finish(checks, record, tracer)
            except OpFailed as exc:
                checks.add("output checks", False, f"raised {exc}")

        attempted, failed = tracer.attempted, tracer.failed
        errors = list(tracer.errors)
        wall_s = statistics.median(durations[False]) if durations[False] else 0.0
        if traced:
            spans = layers.aggregate(tracer.spans)
            missing = (set(layers.PER_LAYER) - set(spans)) - {"trace.overhead_s"}
            probe_tracer = Tracer(enabled=True)
            direct = layers.run_probes(tc, probe_tracer, missing, checks,
                                       record, args.seed, workdir)
            probed = {**layers.aggregate(probe_tracer.spans), **direct}
            attempted += probe_tracer.attempted
            failed += probe_tracer.failed
            errors += probe_tracer.errors
            values = {name: spans[name] if name in spans else probed.get(name)
                      for name in layers.PER_LAYER}
            values["trace.overhead_s"] = (
                statistics.median(durations[True]) - wall_s
                if durations[True] and durations[False] else None)
            unmeasured = sorted(k for k, v in values.items() if v is None)
            checks.add("every per-layer metric measured", not unmeasured,
                       ", ".join(unmeasured))
            metrics = {name: {"value": values[name] or 0.0, "unit": unit}
                       for name, unit in layers.PER_LAYER.items()}
            record["layer_source"] = {
                name: "workload" if name in spans else "probe"
                for name in layers.PER_LAYER if name != "trace.overhead_s"}
            record["self_s"] = {"workload": tracer.self_times(),
                                "probe": probe_tracer.self_times()}
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file)
            probe_tracer.write(trace_file.with_suffix(".probe.json"))
            record["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            record["wall_s"] = wall_s
            metrics = {
                "setup_s": {"value": statistics.median(setup_samples),
                            "unit": "s"},
                "norm_wall_s": {"value": statistics.median(normalized)
                                if normalized else 0.0, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            }
            if hasattr(workload, "fields_per_round") and wall_s > 0:
                record["fields_per_s"] = workload.fields_per_round / wall_s
    except OpFailed as exc:
        # Set-up itself failed: nothing further can run.
        checks.add("workload set-up", False, f"raised {exc}")
        attempted, failed, errors = tracer.attempted, tracer.failed, tracer.errors
        durations, setup_samples, metrics = {False: [], True: []}, [], {}
        normalized = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(machine_record())
    record.update(
        setup_samples_s=setup_samples,
        rounds={"untraced": len(durations[False]),
                "traced": len(durations[True])},
        round_s={"untraced": durations[False], "traced": durations[True]},
        norm_round_s=normalized,
        attempted=attempted, failed=failed,
        failed_frac=failed / attempted if attempted else 0.0,
        errors=errors[:20], checks_run=checks.run,
        checks_failed=len(checks.failed), failed_checks=checks.failed)
    print(json.dumps({"run_record": record}, default=str))
    print(json.dumps({"correct": not checks.failed,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
