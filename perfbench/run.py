"""tcprop benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  Each run starts its own worker
process (``worker.py``), so peak memory and set-up time belong to that
workload; set-up is measured ``SETUP_STARTS`` extra times in set-up-only
processes and reported as the median.  The BLAS pool is capped at the
number of CPUs this process may run on.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
listed in ``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics,
measured by a run that alternates untraced and traced cycles (the
difference is reported as ``trace.overhead_frac``).  Every request's output
is checked; ``failed`` counts requests whose exit code or output disagreed
with the expectation.  Lines before the last one are a human-readable
report and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_STARTS = 8
DEADLINE_S = 170.0
P90_MIN_BEYOND = 10  # report a p90 only with at least this many samples beyond it


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _start_worker(args, extra: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(timeout=max(0.0, deadline - time.perf_counter()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not become ready (got {line.strip()!r}, exit {proc.returncode})")
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _wait(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker exceeded the run deadline") from None
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def measure(args) -> tuple[dict, list[float]]:
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    for _ in range(SETUP_STARTS):
        proc, setup = _start_worker(args, ["--setup-only"], deadline)
        _wait(proc, deadline)
        setups.append(setup)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"result-{os.getpid()}.json"
    try:
        proc, setup = _start_worker(args, ["--result", str(result_path)], deadline)
        setups.append(setup)
        _wait(proc, deadline)
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        result_path.unlink(missing_ok=True)
    return result, setups


def _metric_specs() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path.name} not found next to perfbench/")
    return json.loads(spec_path.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description="tcprop benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        if not (ROOT / "src" / "tcprop" / "__init__.py").is_file():
            raise BenchError("src/tcprop not found: run from the root of a tcprop checkout")
        spec = _metric_specs()
        result, setups = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    lat = result["untraced"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"requests: {result['attempted']} attempted, {result['failed']} failed, "
          f"failed_frac {result['failed'] / result['attempted']:.6g}")
    for reason in result["failures"]:
        print(f"  failed: {reason}")
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": lat["ops_per_s"],
        "op_s.p50": lat["p50"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"setup_s: median of {len(setups)} process starts "
          f"({', '.join(f'{s:.4f}' for s in setups)})")
    print(f"ops_per_s, op_s.p50: {lat['n']} timed requests, closed loop, 1 client; "
          f"cycle seconds {', '.join(f'{s:.3f}' for s in result['cycle_s'])}")
    for label, (p50, n) in result["by_label"].items():
        print(f"  p50 {p50:.6g} s  n={n}  {label}")
    if lat["p90_beyond"] >= P90_MIN_BEYOND:
        print(f"op_s.p90 {lat['p90']:.6g} s ({lat['p90_beyond']} of {lat['n']} samples beyond)")
    else:
        print(f"op_s.p90 not reported: {lat['p90_beyond']} of {lat['n']} samples beyond p90, "
              f"need {P90_MIN_BEYOND}")

    if args.trace:
        values = result["per_layer"]
        print(f"traced requests: {result['traced']['n']}; time waited: not applicable "
              "(no layer waits on another thread or queue)")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
