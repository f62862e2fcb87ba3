"""Benchmark of the tse engine: one workload per run, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload em-iteration --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run.  Everything else goes to standard error.  See README.md.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
EX5_EXPECTED = {(4, 4.0): 1, (3, 3.0): 6, (2, 2.0): 26, (4, 2.0): 1}
EX5_OPS = {"dimension-sweep": "ex5-sut", "cli-jobs": "sut_moments"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def environment_guard():
    """Refuse to run unless ``tse`` imports from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    try:
        import tse
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tse from {SRC}: {exc}")
    where = Path(tse.__file__).resolve().parent
    if where != (SRC / "tse").resolve():
        raise SystemExit(f"perfbench: tse imported from {where}, not from {SRC / 'tse'}")
    import numpy
    import scipy
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }
    log("perfbench env " + json.dumps(env, sort_keys=True))


def child_import_s(module):
    """Median time of a cold ``import <module>`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_passes(ops, run_op, seconds, tracer=None):
    """Whole passes over ``ops`` until ``seconds`` have elapsed."""
    samples, results = [], []
    start = time.perf_counter()
    passes = 0
    pass_s = []
    while True:
        t_pass = time.perf_counter()
        if tracer is not None:
            tracer.current_pass = passes
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.op(op.name):
                        out = run_op(op)
                else:
                    out = run_op(op)
                err = None
            except Exception as exc:  # an operation that raises counts as failed
                out, err = None, exc
            samples.append(time.perf_counter() - t0)
            results.append((i, out, err))
        passes += 1
        pass_s.append(time.perf_counter() - t_pass)
        if time.perf_counter() - start >= seconds:
            break
    return {"samples": samples, "results": results, "passes": passes,
            "wall": time.perf_counter() - start, "pass_s": pass_s}


def check_results(ops, results, known_faults):
    """Attempted, failed and whether every failure is a known fault."""
    refs = {}
    failed = 0
    unexpected = 0
    seen = set()
    for i, out, err in results:
        op = ops[i]
        if err is not None:
            fails = [("raised", f"{type(err).__name__}: {err}")]
        else:
            if i not in refs:
                try:
                    refs[i] = op.reference()
                except Exception as exc:  # the benchmark's own fault: no result
                    raise SystemExit(f"perfbench: reference of {op.name} failed: "
                                     f"{type(exc).__name__}: {exc}")
            try:
                fails = op.check(out, refs[i])
            except Exception as exc:  # an output the check cannot read fails it
                fails = [("check_raised", f"{type(exc).__name__}: {exc}")]
        if not fails:
            continue
        failed += 1
        if any(cid not in known_faults for cid, _ in fails):
            unexpected += 1
        key = (op.name, tuple(cid for cid, _ in fails))
        if key not in seen:
            seen.add(key)
            for cid, msg in fails:
                tag = "known fault" if cid in known_faults else "FAILED"
                log(f"perfbench {tag}: {op.name} [{cid}] {msg}")
    return len(results), failed, unexpected == 0


def op_latencies(ops, run):
    """Each operation's median latency over the timed passes, logged."""
    log("perfbench passes " + " ".join(f"{t:.3f}" for t in run["pass_s"]) + " s")
    n = len(ops)
    medians = [statistics.median(run["samples"][k::n]) for k in range(n)]
    for op, m in zip(ops, medians):
        log(f"perfbench op {op.name:28s} median {1000 * m:10.1f} ms  x{run['passes']}")
    return medians


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    environment_guard()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    is_cli = args.workload == "cli-jobs"

    gen_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workloads.WORKLOADS[args.workload](args.seed)
        gen_times.append(time.perf_counter() - t0)
    import_s = child_import_s("tse.cli")

    if is_cli and not args.trace:
        def run_op(op):
            return workloads.run_cli_process(op.argv)
    elif is_cli:
        import tse.cli  # noqa: F401

        def run_op(op):
            return workloads.run_cli_in_process(op.argv)
    else:
        def run_op(op):
            return op.call()

    if is_cli and not args.trace:
        # Every job process starts cold; there is nothing to warm.
        setup_s = import_s
    else:
        warm = run_passes(ops, run_op, 0.0)
        setup_s = import_s + statistics.median(gen_times) + warm["wall"]
    log(f"perfbench setup {setup_s:.3f} s (import {import_s:.3f} s)")

    if not args.trace:
        run = run_passes(ops, run_op, args.seconds)
        # Read before the references are computed in this process.
        usage = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        attempted, failed, correct = check_results(ops, run["results"], workloads.KNOWN_FAULTS)
        # Quantiles over the operations of a pass, each at its median over
        # the passes: the pass count does not move the quantile's position.
        latencies = op_latencies(ops, run)
        metrics = {
            "setup_s": (setup_s, "s"),
            # A pass at each operation's median latency, so that a stretch of
            # the run slowed by the machine counts once.
            "ops_per_s": (len(ops) / sum(latencies), "1/s"),
            "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "op_p90_ms": (1000 * statistics.quantiles(latencies, n=10)[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        import tracing
        ref = run_passes(ops, run_op, 0.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = run_passes(ops, run_op, args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        attempted, failed, correct = check_results(ops, run["results"], workloads.KNOWN_FAULTS)
        op_latencies(ops, run)
        layer = tracing.layer_metrics(tracer, run["passes"], import_s)
        layer["trace.overhead_ratio"] = statistics.median(run["pass_s"]) / ref["wall"]
        layer["trace.spans"] = len(tracer.spans) / run["passes"]
        ex5 = {}
        if args.workload in EX5_OPS:
            ex5, other = tracing.qmc_calls_by_op(tracer, EX5_OPS[args.workload], 0)
            verdict = "matches" if ex5 == EX5_EXPECTED else "differs from"
            log(f"perfbench EX5 face-recursion QMC calls by (dimension, df): {ex5} "
                f"{verdict} {EX5_EXPECTED}; {other} more outside the recursion")
        layer["qmc.ex5_calls"] = sum(ex5.values())
        metrics = {k: (v, tracing.unit(k)) for k, v in layer.items()}

    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
