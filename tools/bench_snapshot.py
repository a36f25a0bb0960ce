"""Write a bench snapshot: CLI wall times of this checkout and of a parent commit.

    python tools/bench_snapshot.py --parent HEAD~1 --out BENCH.json

The parent commit is exported with ``git archive`` into a temporary
directory; each tree is measured in a fresh Python process that imports
``tcprop`` from that tree's ``src/`` and calls ``tcprop.cli.main``
in-process with stdout captured, so interpreter start-up is not timed.
Every command runs best of 3 (``REPEAT``) after one warm-up call; a command
whose warm-up takes over 2 s (``SLOW_S``) runs once.  The file records:

* ``cli_s``: wall time per command (evolve from a Fock and from a
  coherent state, verify, decompose, relation-search) at cutoffs 60, 200
  and 400, for both trees;
* ``run_checks_stages_s``: for ``verify --atoms 2``, the time up to each
  check line since the previous one (the first includes building the
  coupling), read by wrapping ``tcprop.verify._result``;
* ``run_checks_peak_b_per_level``: the tracemalloc peak of
  ``tcprop.verify.run_checks`` at cutoff 2000 (``PEAK_CUTOFF``), in bytes
  per Fock level, for one and two atoms, after a warm-up call at cutoff
  60, as ``tests/test_verify.py`` measures it, for both trees;
* ``scale``: this checkout alone at cutoffs the parent cannot reach, with
  the peak resident memory of a process that runs just that command;
* ``one_shot``: what one CLI call pays on a cold start: for each cutoff-60
  command, the wall time (interpreter start included) and peak resident
  memory of a fresh process that imports ``tcprop.cli`` from the tree and
  runs that command once, median of 5 (``STARTS``) starts that alternate
  between the trees;
* ``src_lines``: the line count of each ``src/tcprop/*.py`` file, as
  ``wc -l`` counts it, and their ``total``, for both trees;
* ``machine``: cores, Python, numpy, BLAS, best-of count, whether
  ``PYTHONDONTWRITEBYTECODE`` is set (then every start also compiles
  ``src/``) and both commits.

This measures; it gates nothing.  The machine's drift between runs is
not removed, so compare two snapshots taken on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CUTOFFS = (60, 200, 400)
SLOW_S = 2.0
REPEAT = 3
STARTS = 5
PEAK_CUTOFF = 2000
PEAK_ATOMS = (1, 2)


def cli_cases() -> list[list[str]]:
    cases = []
    for c in map(str, CUTOFFS):
        cases += [
            ["evolve", "--atoms", "1", "--cutoff", c, "--initial", "e:fock(0)", "--steps", "500"],
            ["evolve", "--atoms", "2", "--cutoff", c, "--initial", "ee:fock(0)", "--steps", "500"],
            # a Fock state reaches a few levels only; a coherent one reaches every level
            ["evolve", "--atoms", "2", "--cutoff", c, "--initial", "eg:coherent(3)",
             "--steps", "500"],
            ["verify", "--atoms", "1", "--cutoff", c],
            ["verify", "--atoms", "2", "--cutoff", c],
            ["decompose", "--cutoff", c, "--t0", "0.3"],
            ["relation-search", "--atoms", "3", "--cutoff", c, "--max-power", "5"],
        ]
    return cases


STAGE_CASES = [["verify", "--atoms", "2", "--cutoff", str(c)] for c in CUTOFFS]
SCALE_CASES = [
    ["verify", "--atoms", "2", "--cutoff", "2000"],
    ["verify", "--atoms", "2", "--cutoff", "10000"],
    ["relation-search", "--atoms", "3", "--cutoff", "400", "--max-power", "5"],
]

# Run in a child process: argv[1] is the tree's src/, stdin a JSON job.
CHILD = r'''
import contextlib, io, json, resource, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
import tcprop.cli, tcprop.fock, tcprop.verify
job = json.load(sys.stdin)

def once(argv):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = tcprop.cli.main(list(argv))
    return time.perf_counter() - start, rc

def best(argv):
    first, rc = once(argv)
    if first > job["slow_s"]:
        return first, rc, 1
    runs = [once(argv)[0] for _ in range(job["repeat"])]
    return min(runs), rc, len(runs)

def stages(argv):
    marks = []
    result = tcprop.verify._result
    def timed(name, *args, **kwargs):
        marks.append((name, time.perf_counter()))
        return result(name, *args, **kwargs)
    tcprop.verify._result = timed
    try:
        start = time.perf_counter()
        once(argv)
    finally:
        tcprop.verify._result = result
    out, last = {}, start
    for name, mark in marks:
        out[name] = round(mark - last, 6)
        last = mark
    return out

out = {"cli_s": {}, "exit_codes": {}, "runs": {}, "run_checks_stages_s": {}}
for argv in job["cli"]:
    key = " ".join(argv)
    seconds, rc, runs = best(argv)
    out["cli_s"][key], out["exit_codes"][key], out["runs"][key] = round(seconds, 6), rc, runs
for argv in job["stages"]:
    out["run_checks_stages_s"][" ".join(argv)] = stages(argv)
out["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
# after peak_rss_mb, which the traced runs would raise
out["run_checks_peak_b_per_level"] = {}
for n in job["peak_atoms"]:
    tcprop.verify.run_checks(n, tcprop.fock.FockSpace(60), 1e-9)
    tracemalloc.start()
    try:
        tcprop.verify.run_checks(n, tcprop.fock.FockSpace(job["peak_cutoff"]), 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["run_checks_peak_b_per_level"][str(n)] = round(peak / job["peak_cutoff"], 1)
json.dump(out, sys.stdout)
'''


def measure(src: Path, job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src)], input=json.dumps(job), text=True,
        capture_output=True, check=True,
    )
    return json.loads(proc.stdout)


# A cold start: argv[1] is the tree's src/, the rest the command.
ONE_SHOT = ("import sys; sys.path.insert(0, sys.argv[1]); import tcprop.cli; "
            "sys.exit(tcprop.cli.main(sys.argv[2:]))")


def start_once(src: Path, argv: list[str]) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one fresh process running ``argv``."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ONE_SHOT, str(src), *argv],
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024, proc.returncode


def one_shot(trees: dict[str, Path]) -> dict:
    """Medians of ``STARTS`` cold starts per cutoff-60 command, the trees taking turns first."""
    cases = [argv for argv in cli_cases() if argv[argv.index("--cutoff") + 1] == "60"]
    runs = {name: {" ".join(argv): [] for argv in cases} for name in trees}
    for i in range(STARTS):
        for argv in cases:
            for name in (trees if i % 2 == 0 else reversed(list(trees))):
                runs[name][" ".join(argv)].append(start_once(trees[name], argv))
    return {name: {key: {"wall_s": round(statistics.median(r[0] for r in starts), 4),
                         "peak_rss_mb": round(statistics.median(r[1] for r in starts), 1),
                         "exit_codes": sorted({r[2] for r in starts})}
                   for key, starts in cmds.items()}
            for name, cmds in runs.items()}


def src_lines(src: Path) -> dict[str, int]:
    """Lines of each ``tcprop/*.py``, as ``wc -l`` counts them, and the total."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((src / "tcprop").glob("*.py"))}
    return dict(counts, total=sum(counts.values()))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, text=True, capture_output=True,
                          check=True).stdout.strip()


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "best_of": REPEAT,
        "slow_runs_once_above_s": SLOW_S,
        "one_shot_starts": STARTS,
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args()

    job = {"cli": cli_cases(), "stages": STAGE_CASES, "repeat": REPEAT, "slow_s": SLOW_S,
           "peak_atoms": PEAK_ATOMS, "peak_cutoff": PEAK_CUTOFF}
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    snapshot = {
        "machine": machine(),
        "commits": {
            "change": git("rev-parse", "HEAD") + (" + uncommitted changes" if dirty else ""),
            "parent": git("rev-parse", args.parent),
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        snapshot["parent"] = measure(Path(tmp) / "src", job)
        snapshot["change"] = measure(ROOT / "src", job)
        snapshot["one_shot"] = one_shot({"parent": Path(tmp) / "src", "change": ROOT / "src"})
        snapshot["src_lines"] = {"parent": src_lines(Path(tmp) / "src"),
                                 "change": src_lines(ROOT / "src")}
    snapshot["scale"] = {
        " ".join(argv): measure(ROOT / "src",
                                dict(job, cli=[argv], stages=[], peak_atoms=[], slow_s=0.0))
        for argv in SCALE_CASES
    }
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
