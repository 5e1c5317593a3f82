"""previewnash benchmark: one workload per process, closed loop, one client.

Usage, from the repository root:

    python3 benches/run.py --workload preview_sweep --seed 0 --seconds 35 --trace 0
    python3 benches/run.py --workload all --seed 0 --seconds 35
    python3 benches/run.py --workload certify_dense --seed 0 --seconds 1 --trace 1 --smoke

--trace 0 times untraced calls and reports the end-to-end metrics.
--trace 1 alternates untraced and traced calls (traced ones at jobs=1, so
every span is recorded in this process) and reports the per-layer metrics.
--smoke shrinks every input to a tiny size.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}; the exit
code is non-zero when an output check fails.  The metric names and units
must match BENCHMARK.json, or no result is printed.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread per process.  This numpy's OpenBLAS
# is threaded, so `--jobs 2` would otherwise put 4+ threads on 2 cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("preview_sweep", "horizon_sweep", "certify_dense")
SETUP_ROUNDS = 5

END_TO_END_UNITS = {"rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = ((".calls_per_op", "calls/op"), (".self_ms_per_op", "ms/op"),
                   (".self_ms", "ms/call"), (".stage_us", "us"), ("_frac", "ratio"),
                   (".pool_speedup", "ratio"), (".iterations", "count"),
                   (".solves_per_call", "count"), (".errors", "count"))


def per_layer_unit(name: str) -> str:
    if ".p50_ms.T" in name:
        return "ms"
    return next(unit for suffix, unit in PER_LAYER_UNITS if name.endswith(suffix))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for checking the harness")
    ns = p.parse_args(argv)
    if ns.seed < 0 or ns.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return ns


def run_all(ns) -> int:
    """Each workload in its own process; their lines, then a summary line."""
    worst = 0
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(ns.seed), "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
        if ns.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        worst = max(worst, proc.returncode)
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(summary))
    return worst


def environment(ns, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace,
        "smoke": ns.smoke, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": nproc, "threads": THREAD_ENV,
    }


def import_seconds() -> float:
    """Import time of the library in a fresh interpreter, numpy included."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import previewnash; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout)


def peak_rss_mb() -> float:
    """Peak RSS of this process, or of its largest finished child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(wl, ns, tracer) -> tuple[list, list, dict]:
    """Set up SETUP_ROUNDS times, then call until --seconds have passed."""
    setup = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        wl.prepare()
        prepare_s = time.perf_counter() - t0
        setup.append(import_seconds() + prepare_s)

    calls, untraced, pooled, traced = [], [], [], []
    index = 0
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < ns.seconds:
        if tracer is None:
            calls.append(wl.call(index))
            index += 1
            continue
        untraced.append(wl.call(index, jobs=1))
        calls.append(untraced[-1])
        if wl.jobs > 1:
            pooled.append(wl.call(index + 1))
            calls.append(pooled[-1])
        traced.append(wl.call(index + 2, jobs=1, tracer=tracer))
        calls.append(traced[-1])
        index += 3

    if tracer is None:
        return setup, calls, {
            "rows_per_s": sum(c.rows - c.failed for c in calls) / sum(c.seconds for c in calls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
        }
    metrics = tracer.layer_metrics(sum(c.rows for c in traced))
    jobs1 = statistics.median(c.seconds for c in untraced)
    metrics["experiments.pool_speedup"] = (
        jobs1 / statistics.median(c.seconds for c in pooled) if pooled else 0.0)
    metrics["trace.overhead_frac"] = statistics.median(c.seconds for c in traced) / jobs1 - 1.0
    return setup, calls, metrics


def run_one(ns) -> int:
    if not (SRC / "previewnash" / "__init__.py").is_file():
        print("no previewnash sources in src/ next to benches/", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if ns.trace else "end_to_end"]}
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import previewnash

    if Path(previewnash.__file__).resolve().parent != SRC / "previewnash":
        print("previewnash was not imported from this checkout", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import make_workload

    nproc = os.cpu_count() or 1
    env = environment(ns, nproc)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{ns.workload}-", dir=OUT))
    tracer = Tracer() if ns.trace else None
    try:
        setup, calls, metrics = measure(make_workload(ns.workload, ns.seed, work, ns.smoke, nproc),
                                        ns, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tag = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}{'-smoke' if ns.smoke else ''}"
    if tracer is not None:
        tracer.save(OUT / f"spans-{tag}.npz")

    units = {name: per_layer_unit(name) if ns.trace else END_TO_END_UNITS[name] for name in metrics}
    if units != expected:
        print(f"metrics {sorted(units.items())} do not match BENCHMARK.json {sorted(expected.items())}",
              file=sys.stderr)
        return 2

    problems = [p for c in calls for p in c.problems]
    attempted = sum(c.rows for c in calls)
    failed = sum(c.failed for c in calls)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"env {json.dumps(env)}")
    for name in expected:
        print(f"{name:<48} {metrics[name]:.6g} {units[name]}")
    # Printed, not bounded: failed_frac is 0 on every workload, and the
    # median call latency spread too widely between runs (see NOTES.md).
    print(f"{'failed_frac':<48} {failed / attempted:.6g} ratio  ({failed} of {attempted} rows)")
    if not ns.trace:
        p50_ms = statistics.median(c.seconds for c in calls) * 1e3
        print(f"{'call_p50_ms':<48} {p50_ms:.6g} ms  (median of n={len(calls)} calls)")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in expected},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**result, "env": env, "setup_rounds_s": setup, "call_seconds": [c.seconds for c in calls],
         "problems": problems},
        indent=1))
    print(json.dumps(result))
    return 1 if problems else 0


def main(argv=None) -> int:
    ns = parse_args(argv)
    return run_all(ns) if ns.workload == "all" else run_one(ns)


if __name__ == "__main__":
    sys.exit(main())
