#!/usr/bin/env python3
"""The faframe benchmark.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload mol_infer --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics listed under ``end_to_end`` in
BENCHMARK.json; ``--trace 1`` is the separate traced run, which reports the
``per_layer`` metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give every metric by name with its unit, plus fail_share,
the tail's percentile and sample count, and the machine facts.
``--workload all`` runs every workload, each in its own process, and prints
one table.

Workloads (see workloads.py): mol_infer, mol_train, expressivity and
crystal_graph are the ones BENCHMARK.json lists. crystal_prep runs too, but
every one of its operations fails at present (canonicalize translates cell
rows), so it stays out of BENCHMARK.json and reports that failure honestly.

The package is imported from ``src/`` of the checkout, never from an
installed copy; without it the run exits with status 2 before printing a
result. Results, spans and scratch inputs go to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import selfcheck
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
# Set-up is repeated and its median reported, so one slow repetition does
# not move setup_s.
SETUP_REPS = 5
ALL_ORDER = ("mol_infer", "mol_train", "expressivity", "crystal_graph", "crystal_prep")
AUDIT_LABEL = "audit"
# ROADMAP item 1: the per-layer self times must cover the traced operation's
# wall time to within 5%.
MIN_TRACE_COVERAGE = 0.95

EXIT_NO_PACKAGE = 2
EXIT_SELFCHECK = 3
EXIT_SPEC = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL_ORDER + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_faframe() -> float:
    """Import the checkout's own package; returns the seconds the import took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import faframe
    except ImportError as error:
        print(f"cannot import faframe from {src}: {error}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PACKAGE) from None
    elapsed = time.perf_counter() - start
    if not Path(faframe.__file__).resolve().is_relative_to(src.resolve()):
        print(f"faframe came from {faframe.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PACKAGE)
    return elapsed


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """Thread count of the loaded OpenBLAS, read (never set) through its C API."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def attempt(fn, *args):
    """(output, None) on success, (None, message) if the call raised."""
    try:
        return fn(*args), None
    except Exception:  # a failed operation is counted, and the loop goes on
        return None, traceback.format_exc(limit=-3).strip()


def timed_attempt(fn, *args):
    """Like attempt, plus the call's wall time in seconds."""
    start = time.perf_counter()
    output, error = attempt(fn, *args)
    return output, error, time.perf_counter() - start


def measure(workload, state, seconds, tracer):
    """Closed loop, one client: run operations until ``seconds`` have passed."""
    latencies, errors, overheads = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        inputs = workload.inputs(state, i)
        if tracer is None:
            output, error, elapsed = timed_attempt(workload.op, state, inputs)
        else:
            # The untraced twin of the same operation is the baseline of the
            # tracing overhead; alternating which runs first cancels any
            # effect of running second.
            untraced_first = i % 2 == 0
            if untraced_first:
                untraced = timed_attempt(workload.op, state, inputs)[2]
            tracer.install()
            try:
                output, error, elapsed = timed_attempt(tracer.run_op, i, workload.op, state,
                                                       inputs)
            finally:
                tracer.uninstall()
            if not untraced_first:
                untraced = timed_attempt(workload.op, state, inputs)[2]
            overheads.append(elapsed - untraced)
        if error is None:
            _, error = attempt(workload.check, state, inputs, output)
        latencies.append(elapsed)
        errors.append(error)
        i += 1
    return latencies, errors, overheads


def end_to_end_metrics(latencies, errors, setup_s):
    ok = [lat for lat, err in zip(latencies, errors) if err is None]
    # A failed operation counts as slower than any success.
    ranked = [lat if err is None else float("inf") for lat, err in zip(latencies, errors)]
    tail, percentile, beyond = stats.tail(ranked)
    metrics = {
        "ops_per_s": (len(ok) / sum(latencies), "1/s"),
        "latency_p50_s": (stats.median(ranked), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"fail_share": (len(latencies) - len(ok)) / len(latencies),
               "tail_percentile": percentile, "tail_samples_beyond": beyond,
               "samples": len(latencies)}
    return metrics, details


def check_against_spec(metrics, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != expected:
        missing = sorted(set(expected) - set(produced))
        extra = sorted(set(produced) - set(expected))
        wrong = sorted(k for k in set(expected) & set(produced) if expected[k] != produced[k])
        print(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}, "
              f"unit differs {wrong}", file=sys.stderr)
        raise SystemExit(EXIT_SPEC)


def run_one(args) -> int:
    import_s = import_faframe()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    facts = machine_facts(args)
    scratch = WORKDIR / f"{args.workload}-inputs"

    setup_times = []
    for _ in range(SETUP_REPS):
        state = None  # release the previous repetition's model first
        start = time.perf_counter()
        state = workload.setup(args.seed, scratch)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + stats.median(setup_times)

    tracer = tracing.Tracer() if args.trace else None
    latencies, errors, overheads = measure(workload, state, args.seconds, tracer)
    if tracer is None:
        problems = workload.finish(state)
    else:
        tracer.install()
        try:
            problems = tracer.run_op(AUDIT_LABEL, workload.finish, state)
        finally:
            tracer.uninstall()

    if args.trace:
        metrics = tracing.per_layer_metrics(tracer, list(range(len(latencies))), AUDIT_LABEL,
                                            overheads)
        coverage = metrics["trace.coverage"][0]
        if coverage < MIN_TRACE_COVERAGE:
            problems.append(f"per-layer self times cover only {coverage:.3f} of an operation")
        details = {"samples": len(latencies)}
    else:
        metrics, details = end_to_end_metrics(latencies, errors, setup_s)
    check_against_spec(metrics, args.trace)

    failed = sum(err is not None for err in errors)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(latencies),
        "failed": failed,
        # an infinite latency (every operation failed) is written as null
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    WORKDIR.mkdir(exist_ok=True)
    stem = WORKDIR / f"{args.workload}-trace{args.trace}"
    record = {"facts": facts, "why": workload.why, "workload_facts": workload.facts(state),
              "details": details, "setup_times_s": setup_times, "import_s": import_s,
              "latencies_s": latencies, "errors": [e for e in errors if e][:5],
              "problems": problems, "result": result}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(f"{stem}.spans.json")

    print(f"# facts {json.dumps(facts, default=str)}")
    print(f"# {args.workload}: {workload.why}")
    print(f"# workload facts {json.dumps(record['workload_facts'], default=str)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:48s} {value:14.6g} {unit}")
    for name, value in details.items():
        print(f"{args.workload:14s} {name:48s} {value:14.6g}")
    for message in problems + [e for e in errors if e][:1]:
        print(f"# problem: {message.splitlines()[-1]}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    status = 0
    for name in ALL_ORDER:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = [line for line in done.stdout.splitlines() if not line.startswith("# facts")]
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    problems = selfcheck.run()
    if problems:
        print("benchmark self-check failed:\n" + "\n".join(problems), file=sys.stderr)
        return EXIT_SELFCHECK
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
