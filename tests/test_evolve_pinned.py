"""evolve output pinned against CSV files written by the dense-operator route.

Each file in tests/data/evolve/ was written by ``tcprop evolve`` when every
time point still built the dense propagator and multiplied it into the
state.  ``cases.json`` holds the arguments (and, where a case uses one, the
config file text).  The matrix-free route must reproduce the files; the
target is byte identity, and any cell that differs may do so by at most
1e-15 relative to max(1, |cell|), i.e. a few units in the last place.
"""

import csv
import json
from pathlib import Path

import pytest

from tcprop.cli import main

DATA = Path(__file__).parent / "data" / "evolve"
CASES = json.loads((DATA / "cases.json").read_text(encoding="utf-8"))
CELL_TOL = 1e-15


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", sorted(CASES))
def test_evolve_matches_pinned_csv(name, tmp_path):
    case = CASES[name]
    out = tmp_path / "run.csv"
    argv = ["evolve", *case["argv"], "--out", str(out)]
    if "config" in case:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(case["config"], encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    want_path = DATA / f"{name}.csv"
    if out.read_bytes() == want_path.read_bytes():
        return
    got, want = _rows(out), _rows(want_path)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert g_row[0] == w_row[0], f"row {i}: time column differs"
        assert len(g_row) == len(w_row)
        for col, (g_cell, w_cell) in enumerate(zip(g_row, w_row)):
            x, y = float(g_cell), float(w_cell)
            assert abs(x - y) <= CELL_TOL * max(1.0, abs(y)), f"row {i} column {want[0][col]}"
