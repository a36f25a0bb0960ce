"""One run of one workload, in a process of its own.

Started by ``run.py``.  Imports tcprop from the checkout's ``src/``, makes
the request stream from the seed and prints ``ready`` on stdout; ``run.py``
times set-up from process start to that line.  With ``--setup-only`` it
stops there.  Otherwise it runs the closed loop (one client: each request is
sent only after the previous one returned) by calling ``tcprop.cli.main``
in-process, and writes a JSON result to the path given by ``--result``.

Timing covers the ``main`` call only.  Outputs are spooled to disk and
checked by ``reference.py`` after the loop, once peak memory has been read,
so neither the checks nor their memory count against the program.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# Stops a run early if the program becomes fast enough that spooled outputs
# and checking them would no longer fit in the run's time and disk budget.
MAX_TIMED_REQUESTS = 5000


def import_cli():
    """tcprop.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tcprop.cli

    if Path(tcprop.cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"tcprop was imported from {tcprop.cli.__file__}, not from {src}")
    return tcprop.cli


def call(cli, argv: list[str]):
    """Run one CLI request in-process: (exit code, stdout, stderr, traceback or None, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a traceback is a failed request, not the end of the run
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), error, seconds


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "commit": commit,
    }


def latency_stats(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1] if len(ordered) > 1 else ordered[0]
    return {
        "n": len(ordered),
        "p50": statistics.median(ordered),
        "p90": p90,
        "p90_beyond": sum(x > p90 for x in ordered),
        "ops_per_s": len(ordered) / sum(ordered),
    }


def run(args) -> dict:
    cli = import_cli()
    stream = workloads.cycles(args.workload, args.seed)
    warmup = next(stream)
    print("ready", flush=True)
    if args.setup_only:
        return {}

    import reference
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    traced_requests: list[workloads.Request] = []
    untraced: list[float] = []
    traced: list[float] = []
    cycle_s: list[float] = []
    by_label: dict[str, list[float]] = {}
    OUT_DIR.mkdir(exist_ok=True)
    spool_path = OUT_DIR / f"spool-{os.getpid()}.jsonl"

    def run_cycle(cycle, spool, with_trace: bool) -> list[float]:
        times = []
        for req in cycle:
            if with_trace:
                tracer.request = len(traced_requests)
                traced_requests.append(req)
            rc, out, err, error, seconds = call(cli, req.argv)
            times.append(seconds)
            spool.write(json.dumps([req.label, req.params, req.expect_rc, rc, out, err, error]) + "\n")
        return times

    try:
        with open(spool_path, "w", encoding="utf-8") as spool:
            # One untimed cycle first, so lazy imports and first-call costs
            # that a user pays once per process are not in the figures.
            run_cycle(warmup, spool, False)
            start = time.perf_counter()
            for n_cycles, cycle in enumerate(stream, start=1):
                if args.trace and n_cycles % 2 == 0:
                    with tracer.active():
                        times = run_cycle(cycle, spool, True)
                    traced += times
                else:
                    times = run_cycle(cycle, spool, False)
                    untraced += times
                    for req, seconds in zip(cycle, times):
                        by_label.setdefault(req.label, []).append(seconds)
                cycle_s.append(sum(times))
                # stop at the cycle boundary nearest to the requested run length
                done = time.perf_counter() - start + cycle_s[-1] / 2 >= args.seconds or (
                    len(untraced) + len(traced) >= MAX_TIMED_REQUESTS
                )
                # a traced run ends on a traced cycle, so both halves hold the same mix
                if done and (not args.trace or n_cycles % 2 == 0):
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        attempted, failures = 0, []
        with open(spool_path, encoding="utf-8") as spool:
            for line in spool:
                label, params, expect_rc, rc, out, err, error = json.loads(line)
                attempted += 1
                reason = reference.check(label, params, expect_rc, rc, out, err, error)
                if reason is not None:
                    failures.append(f"{label}: {reason}")
    finally:
        spool_path.unlink(missing_ok=True)

    result = {
        "env": environment(args),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "untraced": latency_stats(untraced),
        "cycle_s": cycle_s,
        "by_label": {label: [statistics.median(v), len(v)] for label, v in sorted(by_label.items())},
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        per_layer = tracer.per_request(len(traced_requests))
        per_layer["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1
        scalar = tracer.calls_by_request("fock.cosz", len(traced_requests)) + tracer.calls_by_request(
            "fock.sincz", len(traced_requests)
        )
        ratios = [
            scalar[i] / (req.params["cutoff"] * (req.params["steps"] + 1))
            for i, req in enumerate(traced_requests)
            if req.label.startswith("evolve/a2/")
        ]
        per_layer["fock.scalar_calls_per_level_point"] = statistics.fmean(ratios) if ratios else 0.0
        result["traced"] = latency_stats(traced)
        result["per_layer"] = per_layer
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", type=Path)
    args = parser.parse_args()
    result = run(args)
    if not args.setup_only:
        args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
