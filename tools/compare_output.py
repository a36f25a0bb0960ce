"""Compare the CLI output of this checkout with a parent commit, byte for byte.

    python tools/compare_output.py --parent HEAD~1

The parent commit is exported with ``git archive`` into a temporary
directory, as ``bench_snapshot.py`` does.  Each tree runs one fixed command
list in a fresh Python process that imports ``tcprop`` from that tree's
``src/`` and calls ``tcprop.cli.main`` in process, capturing stdout, stderr
and the exit code (an argparse exit included).  Both processes run in the
temporary directory, which holds the config files by their relative names,
so two runs of the tool on the same trees print the same bytes.  The list
holds:

* ``verify`` at 1-3 atoms and cutoffs 24, 120 and 400, each at the default
  guard, a wider one and the narrowest accepted, plus one run whose
  tolerance makes checks fail;
* ``verify`` at 1-2 atoms and cutoffs 40, 80 and 120 with the default
  guard plus 1 and plus 2, the shapes the ``validation`` benchmark sends;
* ``verify`` at 1-3 atoms and cutoff 2000, as the CI smoke step runs it,
  and at 1-2 atoms at the smallest cutoff each accepts (3 and 4; at 4
  each two-atom a^2 term holds two entries);
* ``decompose`` at t0 = 0.3, 12 and pi/2 + 1e-7, the last 1e-7 from the
  level-1 singular point;
* ``decompose`` at cutoffs 40, 80 and 120 with a coupling g and a t0 below
  every singular point, as the benchmark draws them, plus one t0 on the
  singular point of a mid level;
* ``relation-search`` at 1-3 atoms, max power 3 and 5;
* ``relation-search`` on the shapes the ``relation-search`` benchmark
  sends (three atoms at cutoffs 60, 100 and 140, one atom at 140, two at
  60 and 140; max power 5), each with the default guard plus 0, 1 and 2,
  and three atoms at cutoff 2000;
* every ``evolve`` case pinned in ``tests/data/evolve/cases.json``, with
  its CSV on stdout;
* a few refusals.

That is 102 commands.  One line per command says ``same`` or which streams
differ; the exit code is 1 if any command differs, else 0.  When both
stdouts of a differing command are CSV tables of one shape, the line also
gives the largest cell difference relative to max(1, |cell|) of the
parent's cell, with its row and column.  Otherwise each pair of stdout
lines that differ follows it, the parent's line (``-``) before the
change's (``+``), so a list of the moved ``verify`` digits comes straight
from the tool.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "tests" / "data" / "evolve" / "cases.json"


def _default_guard(cutoff: int) -> int:
    return min(cutoff - 2, max(4, -(-cutoff // 8)))


def commands(config_dir: Path) -> list[list[str]]:
    """The fixed command list; config files of the evolve cases are written to ``config_dir``,
    which the commands name relative to it."""
    out = []
    for atoms in (1, 2, 3):
        for cutoff in (24, 120, 400):
            guards = {_default_guard(cutoff), _default_guard(cutoff) + 3, atoms}
            out += [["verify", "--atoms", str(atoms), "--cutoff", str(cutoff),
                     "--guard", str(guard)] for guard in sorted(guards)]
    out.append(["verify", "--atoms", "2", "--cutoff", "120", "--tol", "1e-15"])
    for atoms in (1, 2):
        for cutoff in (40, 80, 120):
            out += [["verify", "--atoms", str(atoms), "--cutoff", str(cutoff),
                     "--guard", str(_default_guard(cutoff) + extra)] for extra in (1, 2)]
    out += [["verify", "--atoms", str(atoms), "--cutoff", str(cutoff)]
            for atoms, cutoff in ((1, 2000), (2, 2000), (3, 2000), (1, 3), (2, 4))]
    for cutoff in (60, 400):
        for t0 in (0.3, 12.0, math.pi / 2 + 1e-7):
            out.append(["decompose", "--cutoff", str(cutoff), "--t0", repr(t0)])
    g = 1.37
    for cutoff in (40, 80, 120):
        t0 = round(0.6 * math.pi / (2 * g * math.sqrt(cutoff - 1)), 9)
        out.append(["decompose", "--atoms", "1", "--cutoff", str(cutoff), "--t0", repr(t0),
                    "--g", repr(g), "--tol", "1e-09"])
    out.append(["decompose", "--atoms", "1", "--cutoff", "80", "--t0",
                repr(math.pi / (2 * g * math.sqrt(29))), "--g", repr(g)])
    for atoms in (1, 2, 3):
        for cutoff, power in ((24, 3), (140, 5)):
            out.append(["relation-search", "--atoms", str(atoms), "--cutoff", str(cutoff),
                        "--max-power", str(power)])
    # the (atoms, cutoff) shapes of the relation-search benchmark, at each guard it draws
    # (cutoff 140 at the default guard is listed above)
    for atoms, cutoff in ((3, 60), (3, 100), (3, 140), (1, 140), (2, 60), (2, 140)):
        out += [["relation-search", "--atoms", str(atoms), "--cutoff", str(cutoff), "--guard",
                 str(_default_guard(cutoff) + extra), "--max-power", "5"]
                for extra in (0, 1, 2) if (cutoff, extra) != (140, 0)]
    out.append(["relation-search", "--atoms", "3", "--cutoff", "2000", "--max-power", "5"])
    for name, case in sorted(json.loads(CASES.read_text(encoding="utf-8")).items()):
        argv = ["evolve", *case["argv"]]
        if "config" in case:
            (config_dir / f"{name}.cfg").write_text(case["config"], encoding="utf-8")
            argv += ["--config", f"{name}.cfg"]
        out.append(argv)
    out += [
        ["verify", "--atoms", "2", "--cutoff", "3"],
        ["verify", "--cutoff", "24", "--out", "x.csv"],
        ["evolve", "--atoms", "3", "--cutoff", "24", "--initial", "eee:fock(0)"],
        ["relation-search", "--atoms", "3", "--cutoff", "100000000"],
    ]
    return out


# Run in a child process: argv[1] is the tree's src/, stdin the JSON command list.
CHILD = r'''
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tcprop.cli
out = []
for argv in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = tcprop.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    out.append({"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "rc": rc})
json.dump(out, sys.stdout)
'''


def run(src: Path, argvs: list[list[str]], cwd: Path) -> list[dict]:
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src)], input=json.dumps(argvs),
                          cwd=cwd, text=True, capture_output=True, check=True)
    return json.loads(proc.stdout)


def _cells(text: str) -> tuple[list[str], list[list[float]]] | None:
    """A CSV stdout as (header, float rows), or None if it is not one."""
    lines = text.splitlines()
    if len(lines) < 2:
        return None
    header = lines[0].split(",")
    try:
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    except ValueError:
        return None
    return (header, rows) if all(len(row) == len(header) for row in rows) else None


def csv_difference(old: str, new: str) -> str | None:
    """The largest relative cell difference of two CSV stdouts of one shape, as text."""
    parsed = _cells(old), _cells(new)
    if None in parsed or parsed[0][0] != parsed[1][0] or len(parsed[0][1]) != len(parsed[1][1]):
        return None
    (header, old_rows), (_, new_rows) = parsed
    worst, row, col = max(
        (abs(x - y) / max(1.0, abs(x)), i, j)
        for i, (old_row, new_row) in enumerate(zip(old_rows, new_rows), start=1)
        for j, (x, y) in enumerate(zip(old_row, new_row))
    )
    return f"largest cell difference {worst:.3e} relative, row {row}, column {header[col]}"


def line_differences(old: str, new: str) -> list[str]:
    """Each pair of differing lines of two stdouts, parent's first, a missing line as empty."""
    pairs = itertools.zip_longest(old.splitlines(), new.splitlines(), fillvalue="")
    return [f"    {sign} {line}" for pair in pairs if pair[0] != pair[1]
            for sign, line in zip("-+", pair)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        (tmp / "parent").mkdir()
        subprocess.run(["tar", "-x", "-C", tmp / "parent"], input=archive, check=True)
        argvs = commands(tmp)
        parent = run(tmp / "parent" / "src", argvs, tmp)
        change = run(ROOT / "src", argvs, tmp)

    differ = 0
    for argv, old, new in zip(argvs, parent, change):
        streams = [key for key in ("stdout", "stderr", "rc") if old[key] != new[key]]
        differ += bool(streams)
        cells = "stdout" in streams and csv_difference(old["stdout"], new["stdout"])
        print(f"{'DIFF ' + '/'.join(streams) if streams else 'same'}: {' '.join(argv)}"
              + (f" ({cells})" if cells else ""))
        if "stdout" in streams and not cells:
            print(*line_differences(old["stdout"], new["stdout"]), sep="\n")
    print(f"{differ} of {len(argvs)} commands differ from {args.parent}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
