"""Write a bench snapshot: CLI wall times of this checkout and of a parent commit.

    python tools/bench_snapshot.py --parent HEAD~1 --out BENCH.json [--null]

The parent commit is exported with ``git archive`` into a temporary
directory.  Each tree is measured in Python processes that import
``tcprop`` from that tree's ``src/`` and call ``tcprop.cli.main``
in-process with stdout captured, so interpreter start-up is not timed.
The file records:

* ``cli_s``: paired wall times per command (evolve at one and two atoms
  from a Fock and from a coherent state, verify, decompose,
  relation-search) at cutoffs 60, 200 and 400.  Every command runs in each
  of ``ROUNDS`` rounds, in persistent processes, one per tree; each round
  alternates which tree goes first and keeps the best of ``REPEAT`` calls.
  The rounds are split among ``PROCESS_PAIRS`` fresh pairs of processes,
  each after one warm-up round, and both processes of a pair run on one
  CPU.  Per command: both trees' medians over the rounds, their ratio
  (change / parent), the rounds the change was faster in, and both exit
  codes; ``peak_rss_mb`` is each tree's largest peak resident memory of a
  process after every command;
* ``null`` (with ``--null``): the same pairs, this checkout against a
  copy of its own ``src/``, so every ratio is noise; ``band`` is the
  lowest and highest ratio, the range inside which a ``cli_s`` ratio is no
  change;
* ``run_checks_stages_s``: for ``verify --atoms 2``, the time up to each
  check line since the previous one (the first includes building the
  coupling), read by wrapping ``tcprop.verify._result``;
* ``run_checks_peak_b_per_level``: the tracemalloc peak of
  ``tcprop.verify.run_checks`` at cutoff 2000 (``PEAK_CUTOFF``), in bytes
  per Fock level, for one and two atoms, after a warm-up call at cutoff
  60, as ``tests/test_verify.py`` measures it, for both trees;
* ``scale``: this checkout alone at cutoffs the parent cannot reach, one
  call each, with the peak resident memory of a process that runs just
  that command;
* ``one_shot``: what one CLI call pays on a cold start: for each cutoff-60
  command, the wall time (interpreter start included) and peak resident
  memory of a fresh process that imports ``tcprop.cli`` from the tree and
  runs that command once, median of 5 (``STARTS``) starts that alternate
  between the trees;
* ``src_lines``: the line count of each ``src/tcprop/*.py`` file, as
  ``wc -l`` counts it, and their ``total``, for both trees;
* ``machine``: cores, Python, numpy, BLAS, rounds and best-of count,
  whether ``PYTHONDONTWRITEBYTECODE`` is set (then every start also
  compiles ``src/``) and both commits.

This measures; it gates nothing.  Pairing takes the machine's slow drift
out of ``cli_s``, not its noise: read a ratio against the ``null`` band of
the same snapshot.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CUTOFFS = (60, 200, 400)
ROUNDS = 20
REPEAT = 5
# the rounds are split among this many fresh process pairs: how the C heap of one process
# grew can move an evolve command by over 10%, the same code in both trees of a pair
PROCESS_PAIRS = 4
STARTS = 5
PEAK_CUTOFF = 2000
PEAK_ATOMS = (1, 2)


def cli_cases() -> list[list[str]]:
    cases = []
    for c in map(str, CUTOFFS):
        cases += [
            ["evolve", "--atoms", "1", "--cutoff", c, "--initial", "e:fock(0)", "--steps", "500"],
            ["evolve", "--atoms", "1", "--cutoff", c, "--initial", "e:coherent(3)",
             "--steps", "500"],
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
import contextlib, io, json, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
import tcprop.cli, tcprop.fock, tcprop.verify
job = json.load(sys.stdin)

def stages(argv):
    marks = []
    result = tcprop.verify._result
    def timed(name, *args, **kwargs):
        marks.append((name, time.perf_counter()))
        return result(name, *args, **kwargs)
    tcprop.verify._result = timed
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            tcprop.cli.main(list(argv))
    finally:
        tcprop.verify._result = result
    out, last = {}, start
    for name, mark in marks:
        out[name] = round(mark - last, 6)
        last = mark
    return out

out = {"run_checks_stages_s": {" ".join(argv): stages(argv) for argv in job["stages"]},
       "run_checks_peak_b_per_level": {}}
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


# A persistent child: argv[1] is the tree's src/.  Each stdin line is a JSON [argv, calls],
# answered by one line: the best wall time of that many calls, output captured, and the exit
# code; a JSON null is answered by the process's peak resident memory in MB.
SERVER = r'''
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import tcprop.cli

def once(argv):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = tcprop.cli.main(list(argv))
    return time.perf_counter() - start, rc

for line in sys.stdin:
    job = json.loads(line)
    if job is None:
        reply = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    else:
        argv, calls = job
        runs = [once(argv) for _ in range(calls)]
        reply = [min(s for s, _ in runs), runs[-1][1]]
    print(json.dumps(reply), flush=True)
'''


class Server:
    """One persistent process that runs CLI commands in-process from one tree's ``src/``.

    Every server runs on the lowest CPU this process may use: the two trees of a pair take
    turns, never run at once, so a core that other load slows slows both of them alike.
    """

    def __init__(self, src: Path):
        self.proc = subprocess.Popen([sys.executable, "-c", SERVER, str(src)], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        os.sched_setaffinity(self.proc.pid, {min(os.sched_getaffinity(0))})

    def ask(self, job):
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the child process ended with status {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()


def paired(trees: dict[str, Path], cases: list[list[str]]) -> dict:
    """Paired wall times of ``cases`` on two trees, (base, other): ``ROUNDS`` rounds of
    best-of-``REPEAT`` calls, the trees taking turns first, from ``PROCESS_PAIRS`` pairs of
    persistent processes, one per tree, each pair after a warm-up round.  Per command: each
    tree's median, other / base and the rounds ``other`` was faster in."""
    base, other = trees
    cases = {" ".join(argv): argv for argv in cases}
    seconds = {name: {key: [] for key in cases} for name in trees}
    codes = {name: {} for name in trees}
    peak = {name: 0.0 for name in trees}
    per_pair = ROUNDS // PROCESS_PAIRS
    for pair in range(PROCESS_PAIRS):
        with Server(trees[base]) as first, Server(trees[other]) as second:
            servers = {base: first, other: second}
            for argv in cases.values():
                for server in servers.values():
                    server.ask([argv, 1])
            for i in range(pair * per_pair, (pair + 1) * per_pair):
                for key, argv in cases.items():
                    for name in (trees if i % 2 == 0 else reversed(list(trees))):
                        best, codes[name][key] = servers[name].ask([argv, REPEAT])
                        seconds[name][key].append(best)
            for name, server in servers.items():
                peak[name] = max(peak[name], server.ask(None))
    rows = {}
    for key in cases:
        ours, theirs = seconds[other][key], seconds[base][key]
        rows[key] = {f"{base}_s": round(statistics.median(theirs), 6),
                     f"{other}_s": round(statistics.median(ours), 6),
                     "ratio": round(statistics.median(ours) / statistics.median(theirs), 3),
                     f"{other}_faster": sum(a < b for a, b in zip(ours, theirs)),
                     "exit_codes": {name: codes[name][key] for name in trees}}
    return {"rounds": ROUNDS, "process_pairs": PROCESS_PAIRS, "commands": rows,
            "peak_rss_mb": peak}


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
        "rounds": ROUNDS,
        "best_of": REPEAT,
        "one_shot_starts": STARTS,
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--null", action="store_true",
                        help="also pair this checkout with a copy of itself: the noise band")
    args = parser.parse_args()

    job = {"stages": STAGE_CASES, "peak_atoms": PEAK_ATOMS, "peak_cutoff": PEAK_CUTOFF}
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    snapshot = {
        "machine": machine(),
        "commits": {
            "change": git("rev-parse", "HEAD") + (" + uncommitted changes" if dirty else ""),
            "parent": git("rev-parse", args.parent),
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        trees = {"parent": parent / "src", "change": ROOT / "src"}
        snapshot["cli_s"] = paired(trees, cli_cases())
        if args.null:
            copy = Path(tmp) / "copy" / "src"
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            null = paired({"change": ROOT / "src", "copy": copy}, cli_cases())
            ratios = [row["ratio"] for row in null["commands"].values()]
            snapshot["null"] = dict(null, band=[min(ratios), max(ratios)])
        snapshot["parent"] = measure(trees["parent"], job)
        snapshot["change"] = measure(trees["change"], job)
        snapshot["one_shot"] = one_shot(trees)
        snapshot["src_lines"] = {name: src_lines(src) for name, src in trees.items()}
    snapshot["scale"] = {}
    for argv in SCALE_CASES:
        with Server(ROOT / "src") as server:
            seconds, code = server.ask([argv, 1])
            snapshot["scale"][" ".join(argv)] = {"s": round(seconds, 6), "exit_code": code,
                                                 "peak_rss_mb": server.ask(None)}
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
