"""Command line behavior: exit codes, CSV layout, config handling."""

import cmath
import contextlib
import csv
import errno
import importlib.util
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcprop
from tcprop import cli
from tcprop.cli import InitialStateSpec, build_state, main, parse_initial
from tcprop import FockSpace, atomic_labels
from tcprop.propagator import evolve_states
from tcprop.verify import gauss_deviations

FAST = ["--cutoff", "24", "--guard", "4"]


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def test_verify_one_atom_passes(capsys):
    assert main(["verify", "--atoms", "1", *FAST]) == 0
    out = capsys.readouterr().out
    assert "all " in out and "checks passed" in out
    assert "FAIL" not in out


def test_verify_two_atoms_passes(capsys):
    assert main(["verify", "--atoms", "2", *FAST]) == 0
    out = capsys.readouterr().out
    assert "reduction-reconstruction" in out


def test_verify_three_atoms_skips_propagator_checks(capsys):
    assert main(["verify", "--atoms", "3", *FAST]) == 0
    out = capsys.readouterr().out
    assert "note:" in out
    assert "three atoms" in out


def test_verify_output_is_deterministic(capsys):
    main(["verify", "--atoms", "1", *FAST])
    first = capsys.readouterr().out
    main(["verify", "--atoms", "1", *FAST])
    second = capsys.readouterr().out
    assert first == second


def test_evolve_csv_layout(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(
        ["evolve", "--atoms", "1", "--initial", "e:fock(0)", "--steps", "20",
         "--t1", "5", "--out", str(out), *FAST]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "P_e", "P_g", "mean_photon", "norm"]
    assert len(rows) == 21
    assert rows[0][0] == 0.0
    assert rows[-1][0] == 5.0
    for row in rows:
        t, p_e, p_g, mean_photon, norm = row
        assert abs(p_e - math.cos(t) ** 2) <= 1e-10
        assert abs(p_e + p_g - 1.0) <= 1e-10
        assert abs(mean_photon - p_g) <= 1e-10
        assert abs(norm - 1.0) <= 1e-10


def test_evolve_to_stdout(capsys):
    rc = main(["evolve", "--atoms", "1", "--initial", "g:fock(1)", "--steps", "2", *FAST])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,P_e,P_g,mean_photon,norm"
    assert len(lines) == 4


def test_evolve_ground_pair_is_stationary(tmp_path):
    out = tmp_path / "gg.csv"
    rc = main(
        ["evolve", "--atoms", "2", "--initial", "gg:fock(0)", "--steps", "5",
         "--out", str(out), *FAST]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "P_ee", "P_eg", "P_ge", "P_gg", "mean_photon", "norm"]
    for row in rows:
        assert abs(row[4] - 1.0) <= 1e-12
        assert abs(row[5]) <= 1e-12  # mean photon number stays zero


def test_evolve_coherent_initial(tmp_path):
    out = tmp_path / "coh.csv"
    rc = main(
        ["evolve", "--atoms", "1", "--initial", "e:coherent(1.2)", "--steps", "5",
         "--cutoff", "40", "--guard", "5", "--out", str(out)]
    )
    assert rc == 0
    _, rows = _read_csv(out)
    # truncated coherent state is renormalized before evolving
    assert abs(rows[0][4] - 1.0) <= 1e-12
    assert abs(rows[0][3] - 1.44) <= 1e-6  # initial mean photon ~ |alpha|^2


def _run(argv):
    """main(argv) with stdout captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


# the free phase exp(-i t omega (S_3 + N)) commutes with A and has modulus 1, so no column of
# evolve, each a sum of |amplitude|^2, depends on omega: evolve does not form it at all
@pytest.mark.parametrize("atoms, initial, to_file", [
    (1, "e:fock(3)", False), (1, "g:coherent(1.5-0.5i)", False),
    (2, "eg:fock(2)", False), (2, "ee:coherent(2)", False), (2, "ge:coherent(1+1i)", True)])
def test_evolve_output_does_not_depend_on_omega(tmp_path, atoms, initial, to_file):
    argv = ["evolve", "--atoms", str(atoms), "--cutoff", "60", "--steps", "40", "--t1", "7",
            "--g", "1.3", "--initial", initial]
    printed = []
    for omega in ("0.3", "1e300"):
        out = tmp_path / f"omega-{omega}.csv"
        rc, stdout = _run([*argv, "--omega", omega, *(["--out", str(out)] if to_file else [])])
        assert rc == 0
        printed.append(out.read_bytes() if to_file else stdout.encode())
    assert printed[0].count(b"\n") == 42
    assert printed[0] == printed[1]


# evolve propagates only the levels of the state's eps-support, widened by the atom count;
# dropping the smaller amplitudes must leave every printed byte as the exact support gives it
@settings(max_examples=40, deadline=None, derandomize=True)
@given(atoms=st.sampled_from([1, 2]), cutoff=st.integers(20, 400), label=st.integers(0, 3),
       share=st.floats(0.0, 0.999), phase=st.floats(0.0, 2 * math.pi),
       t1=st.floats(0.5, 60.0))
def test_evolve_prints_the_same_bytes_on_the_eps_support_as_on_the_exact_support(
        atoms, cutoff, label, share, phase, t1):
    # |alpha|^2 up to a quarter of the top trusted level, the largest evolve accepts
    mean = share * (FockSpace(cutoff).trusted - 1) / 4
    alpha = cmath.rect(math.sqrt(mean), phase)
    atomic = atomic_labels(atoms)[label % 2**atoms]
    argv = ["evolve", "--atoms", str(atoms), "--cutoff", str(cutoff), "--steps", "12",
            "--t1", repr(t1), "--initial", f"{atomic}:coherent({alpha.real!r}{alpha.imag:+}i)"]
    eps_support = _run(argv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "EVOLVE_EPS", 0.0)  # every nonzero amplitude
        exact_support = _run(argv)
    assert eps_support == exact_support
    # a state that loses weight past a small cutoff is refused, the same way in both
    assert eps_support[0] == 0 or cutoff < 40


def test_evolve_rejects_three_atoms(capsys):
    rc = main(["evolve", "--atoms", "3", "--initial", "eee:fock(0)", *FAST])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_evolve_requires_initial(capsys):
    assert main(["evolve", "--atoms", "1", *FAST]) == 2


def test_evolve_rejects_fock_level_in_guard_band(capsys):
    rc = main(["evolve", "--atoms", "1", "--initial", "e:fock(21)", *FAST])
    assert rc == 2
    assert "trusted" in capsys.readouterr().err


def test_evolve_rejects_wide_coherent_state(capsys):
    rc = main(
        ["evolve", "--atoms", "2", "--initial", "ee:coherent(3)", "--cutoff", "20",
         "--guard", "4"]
    )
    assert rc == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["38.8", "38.1", "20+35i", "38.5"])
def test_evolve_refuses_weight_lost_to_underflow_as_such(capsys, alpha):
    # |alpha|^2 = 1505.4, 1451.6, 1625 and 1482.25: exp(-|alpha|^2 / 2) is 0 or subnormal,
    # so the state is refused before it is built, whatever weight the recurrence would keep
    rc = main(["evolve", "--atoms", "1", "--cutoff", "8000", "--steps", "1",
               "--initial", f"e:coherent({alpha})"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "underflows past |alpha|^2 = 1416.793, and no cutoff can fix this" in err
    assert "raise the cutoff" not in err


def test_evolve_names_the_underflow_before_any_cutoff_advice(capsys):
    # at cutoff 100 |alpha|^2 = 1600 also exceeds the trusted band, but no cutoff would help
    rc = main(["evolve", "--atoms", "1", "--cutoff", "100", "--steps", "1",
               "--initial", "e:coherent(40)"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no cutoff can fix this" in err and "raise the cutoff" not in err


@pytest.mark.parametrize(
    "bad",
    ["e-fock(0)", "x:fock(0)", "e:fock(-1)", "e:fock(a)", "e:coherent(1+2j)", "e:thermal(1)"],
)
def test_evolve_rejects_malformed_initial(bad):
    assert main(["evolve", "--atoms", "1", "--initial", bad, *FAST]) == 2


def test_evolve_rejects_label_length_mismatch(capsys):
    rc = main(["evolve", "--atoms", "2", "--initial", "e:fock(0)", *FAST])
    assert rc == 2
    assert "expected 2" in capsys.readouterr().err


def test_parse_initial_complex_amplitudes():
    spec = parse_initial("eg:coherent(0.8+0.5i)", 2)
    assert spec.kind == "coherent"
    assert spec.alpha == complex(0.8, 0.5)
    spec = parse_initial("e:coherent(-0.3-0.2i)", 1)
    assert spec.alpha == complex(-0.3, -0.2)
    spec = parse_initial("g:coherent(2e-1)", 1)
    assert spec.alpha == complex(0.2, 0.0)
    spec = parse_initial("g:fock(3)", 1)
    assert spec.fock_level == 3


def test_build_state_places_atomic_block():
    space = FockSpace(10, 2)
    spec = InitialStateSpec(atomic="ge", kind="fock", fock_level=2)
    state = build_state(spec, space)
    # 'ge' is binary 10 -> block 2 of 4
    assert state[2 * 10 + 2] == 1.0
    assert np.count_nonzero(state) == 1


def _binary_atomic_index(label: str) -> int:
    """Index of an atomic label read as a binary number with e = 0 and g = 1."""
    return int("".join("1" if ch == "g" else "0" for ch in label), 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_state_block_is_binary_label_index(n):
    space = FockSpace(6, 2)
    labels = atomic_labels(n)
    for label in labels:
        assert labels.index(label) == _binary_atomic_index(label)
        state = build_state(InitialStateSpec(atomic=label, kind="fock", fock_level=1), space)
        assert np.flatnonzero(state).tolist() == [_binary_atomic_index(label) * 6 + 1]


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample configuration\n"
        "atoms = 2\n"
        "cutoff = 24\n"
        "guard = 4\n"
        "steps = 3\n"
        "initial = gg:fock(0)\n"
    )
    out = tmp_path / "out.csv"
    rc = main(["evolve", "--config", str(cfg), "--steps", "7", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header[1] == "P_ee"  # atoms taken from the file
    assert len(rows) == 8  # steps taken from the flag


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cutof = 30\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_file_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cutoff = many\n")
    assert main(["verify", "--config", str(cfg)]) == 2


def test_config_file_missing(capsys):
    assert main(["verify", "--config", "/nonexistent/path.cfg"]) == 2


def test_config_file_hyphenated_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-power = 5\n")
    rc = main(["relation-search", "--config", str(cfg), "--atoms", "1", *FAST])
    assert rc == 0
    out = capsys.readouterr().out
    assert "A^5" in out


def test_guard_bounds_checked(capsys):
    assert main(["verify", "--cutoff", "10", "--guard", "9"]) == 2
    assert main(["verify", "--cutoff", "10", "--guard", "-1"]) == 2


@pytest.mark.parametrize("atoms, flags", [
    ("1", ["--cutoff", "2"]),
    ("2", ["--cutoff", "3"]),
    ("1", ["--cutoff", "40", "--guard", "0"]),
    ("2", ["--cutoff", "40", "--guard", "1"]),
])
def test_verify_refuses_a_guard_below_the_atom_count(capsys, atoms, flags):
    # the trusted band's excitation sectors would end in the cut: FAIL by construction
    assert main(["verify", "--atoms", atoms, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"needs guard >= {atoms}" in captured.err


@pytest.mark.parametrize("atoms, flags", [
    ("1", ["--cutoff", "3"]),
    ("2", ["--cutoff", "4"]),
    ("1", ["--cutoff", "40", "--guard", "1"]),
    ("2", ["--cutoff", "40", "--guard", "2"]),
    ("3", ["--cutoff", "40", "--guard", "0"]),
])
def test_verify_passes_at_a_guard_of_the_atom_count(capsys, atoms, flags):
    assert main(["verify", "--atoms", atoms, *flags]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("atoms, initial", [(1, "e:fock(8)"), (2, "ee:fock(7)")])
def test_evolve_refuses_a_guard_below_the_atom_count(tmp_path, capsys, monkeypatch, atoms,
                                                     initial):
    # the excitation sector of level m reaches m + atoms: a narrower guard cuts trusted
    # sectors, and the printed norm collapses
    out = tmp_path / "run.csv"
    argv = ["evolve", "--atoms", str(atoms), "--cutoff", "10", "--steps", "4",
            "--initial", initial, "--out", str(out)]
    with monkeypatch.context() as patch:
        for name in _WORK["evolve"]:
            patch.setattr(cli, name, _no_checks)
        assert main([*argv, "--guard", str(atoms - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"evolve with atoms={atoms} needs guard >= {atoms}" in captured.err
    assert main([*argv, "--guard", str(atoms)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 5
    for row in rows:
        assert abs(row[-1] - 1.0) <= 1e-12


@pytest.mark.parametrize("atoms, cutoff", [("1", "2"), ("2", "3")])
def test_evolve_refuses_the_default_guard_of_the_smallest_cutoffs(capsys, atoms, cutoff):
    # default guards 0 and 1
    assert main(["evolve", "--atoms", atoms, "--cutoff", cutoff, "--steps", "2",
                 "--initial", "e" * int(atoms) + ":fock(0)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"needs guard >= {atoms}" in captured.err


def _no_checks(*args):
    raise AssertionError("run_checks reached: the refusal must come before any allocation")


# each command's work, replaced by a failure: a refusal must come before any of it
_WORK = {"verify": ["run_checks"], "evolve": ["build_state", "evolve_states"],
         "decompose": ["gauss_deviations"], "relation-search": ["relation_fits"]}


def _check_budget_refusal(capsys, monkeypatch, command, atoms):
    cutoff = 60
    extra = ["--initial", "g" * atoms + ":fock(0)"] if command == "evolve" else []
    argv = [command, "--atoms", str(atoms), "--cutoff", str(cutoff), *extra]
    need = cli.BYTES_PER_LEVEL[command, atoms] * cutoff
    monkeypatch.setattr(cli, "MEMORY_BUDGET", need - 1)
    for name in _WORK[command]:
        monkeypatch.setattr(cli, name, _no_checks)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err and f"{command} at atoms={atoms}, cutoff={cutoff}" in captured.err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MEMORY_BUDGET", need)
    assert main(argv) == 0


@pytest.mark.parametrize("atoms", ["1", "2", "3"])
def test_verify_refuses_a_working_set_over_the_budget(capsys, monkeypatch, atoms):
    _check_budget_refusal(capsys, monkeypatch, "verify", int(atoms))


@pytest.mark.parametrize("command, atoms",
                         sorted(key for key in cli.BYTES_PER_LEVEL if key[0] != "verify"))
def test_every_command_refuses_a_working_set_over_the_budget(capsys, monkeypatch, command, atoms):
    _check_budget_refusal(capsys, monkeypatch, command, atoms)


def test_verify_refuses_a_cutoff_near_a_million_up_front(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_checks", _no_checks)
    assert main(["verify", "--atoms", "2", "--cutoff", "1000000"]) == 2
    assert "GiB" in capsys.readouterr().err


@pytest.mark.parametrize("atoms, cutoff, accepted", [
    (2, 89_478, True),  # refused at 25 KB per level, while one table held every closed form
    (1, 357_913, True),  # refused at 7 KB per level
    (3, 306_784, False),  # three atoms build no closed form and keep 7 KB per level
    (2, 150_000, True),  # refused at 15 KB per level, before phase 1 ran in passes of scales
    (2, 2**31 // 10_000, True),  # the last cutoff within the budget at 10 KB per level
    (2, 2**31 // 10_000 + 1, False),
])
def test_verify_budget_follows_the_two_phase_figures(atoms, cutoff, accepted):
    # configuration only: nothing is built at these cutoffs
    args = cli._build_parser()[0].parse_args(["verify", "--atoms", str(atoms),
                                              "--cutoff", str(cutoff)])
    if accepted:
        assert cli.build_config(args).cutoff == cutoff
    else:
        with pytest.raises(cli.ConfigError, match="GiB memory budget"):
            cli.build_config(args)


@pytest.mark.parametrize("argv", [
    ["evolve", "--atoms", "2", "--cutoff", "310000", "--initial", "gg:fock(0)"],
    ["evolve", "--atoms", "1", "--cutoff", "100000000", "--initial", "g:fock(0)"],
    ["relation-search", "--atoms", "3", "--cutoff", "400000"],
    ["decompose", "--cutoff", "100000000"],
], ids=["evolve-2", "evolve-1", "relation-search-3", "decompose-1"])
def test_large_cutoffs_are_refused_up_front(capsys, monkeypatch, argv):
    for name in ("build_state", "evolve_states", "relation_fits", "gauss_deviations"):
        monkeypatch.setattr(cli, name, _no_checks)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "GiB memory budget" in captured.err


def test_a_refused_atom_count_keeps_its_own_message(capsys):
    # no memory entry for what the command refuses anyway: the command says why
    assert main(["evolve", "--atoms", "3", "--cutoff", "100000000", "--initial", "ggg:fock(0)"]) == 2
    assert "three atoms" in capsys.readouterr().err
    assert main(["decompose", "--atoms", "2", "--cutoff", "100000000"]) == 2
    assert "one atom only" in capsys.readouterr().err


def test_invalid_atoms_rejected():
    assert main(["verify", "--atoms", "4", *FAST]) == 2


def test_invalid_time_window_rejected():
    assert main(["evolve", "--initial", "e:fock(0)", "--t0", "2", "--t1", "1", *FAST]) == 2


def test_evolve_needs_a_step(capsys):
    assert main(["evolve", "--initial", "e:fock(0)", "--steps", "0", *FAST]) == 2
    assert "error: steps must be >= 1, got 0" in capsys.readouterr().err


def test_decompose_evaluates_past_the_default_end_time(capsys):
    # t1 (default 10) bounds the evolve time grid only; decompose never reads it
    assert main(["decompose", "--cutoff", "24", "--t0", "12"]) == 0
    assert "factorization at t=12," in capsys.readouterr().out


def test_time_window_keys_in_a_shared_config_file_do_not_stop_verify(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("t0 = 12\nsteps = 0\n")
    assert main(["verify", "--atoms", "3", *FAST, "--config", str(path)]) == 0


def test_decompose_reports_product(capsys):
    rc = main(["decompose", "--atoms", "1", "--t0", "0.3", "--g", "1", *FAST])
    assert rc == 0
    out = capsys.readouterr().out
    assert "product" in out
    assert "variant" in out
    product, variant = gauss_deviations(FockSpace(24, 4), 0.3, 1.0)
    assert f"product vs closed form deviation {product:.3e} " in out
    assert f"lower-factor variant agreement  {variant:.3e}\n" in out


def test_decompose_refuses_singular_point(capsys):
    rc = main(["decompose", "--atoms", "1", "--t0", str(math.pi / 2), "--g", "1", *FAST])
    assert rc == 1
    err = capsys.readouterr().err
    assert "refused:" in err
    assert "m=1" in err


def test_decompose_needs_one_atom(capsys):
    assert main(["decompose", "--atoms", "2", *FAST]) == 2


def test_relation_search_reports_residual(capsys):
    rc = main(["relation-search", "--atoms", "2", *FAST])
    assert rc == 0
    out = capsys.readouterr().out
    assert "relative residual" in out
    assert "unconstrained" in out


def test_relation_search_three_atoms_flags_no_fit(capsys):
    rc = main(["relation-search", "--atoms", "3", "--cutoff", "24", "--guard", "4",
               "--max-power", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no diagonal relation" in out
    assert "degree 6" in out


def test_evolve_ignores_options_it_does_not_read(tmp_path):
    # one file for several commands: evolve reads neither tol nor max_power
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("tol = -1\nmax_power = 4\ncutoff = 24\nsteps = 3\ninitial = e:fock(0)\n")
    out = tmp_path / "run.csv"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(_read_csv(out)[1]) == 4


def test_verify_ignores_a_coupling_it_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("g = inf\ncutoff = 24\n")
    assert main(["verify", "--atoms", "3", "--config", str(cfg)]) == 0
    assert "all 4 checks passed" in capsys.readouterr().out


def test_verify_still_validates_its_tolerance(tmp_path, capsys):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("tol = -1\ncutoff = 24\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "tol must be positive" in capsys.readouterr().err


def test_unread_flag_is_refused_under_the_command_usage(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--cutoff", "24", "--out", "x.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tcprop verify ")
    assert "\ntcprop verify: error: unrecognized arguments: --out x.csv\n" in err
    assert not (tmp_path / "x.csv").exists()


def test_relation_search_rejects_even_power():
    assert main(["relation-search", "--atoms", "1", "--max-power", "4", *FAST]) == 2


# every (command, flag) pair where the command does not read the option
UNREAD_FLAGS = [
    (command, name)
    for name, (_, _, commands, _) in cli._OPTIONS.items()
    for command in cli._COMMANDS
    if command not in commands
]


def test_unread_flags_cover_the_documented_table():
    read = {command: {name for name, opt in cli._OPTIONS.items() if command in opt[2]}
            for command in cli._COMMANDS}
    assert read == {
        "verify": {"atoms", "cutoff", "guard", "tol"},
        "evolve": set(cli._OPTIONS) - {"tol", "max_power"},
        "decompose": {"atoms", "cutoff", "guard", "g", "t0", "tol"},
        "relation-search": {"atoms", "cutoff", "guard", "max_power"},
    }


@pytest.mark.parametrize("command, name", UNREAD_FLAGS)
def test_unread_flag_is_refused(tmp_path, capsys, command, name):
    out = tmp_path / "run.csv"
    value = str(out) if name == "out" else OPTION_VALUES[name]
    with pytest.raises(SystemExit) as exc:
        main([command, "--" + name.replace("_", "-"), value])
    assert exc.value.code == 2
    assert "unrecognized arguments: --" + name.replace("_", "-") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["verify", "--g", "2"], ["relation-search", "--g", "2"],
                                  ["decompose", "--cut", "24"]])
def test_flags_are_not_abbreviated(capsys, argv):
    # a prefix of a flag the command reads must not stand in for one it does not
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err


def test_unknown_flag_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["verify", "--bogus"])


def test_missing_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main([])


VALID_CALLS = [
    ["verify", "--atoms", "1", "--cutoff", "8"],
    ["evolve", "--atoms", "2", "--cutoff", "12", "--steps", "3", "--initial", "eg:fock(1)"],
    ["decompose", "--cutoff", "8", "--t0", "0.3"],
    ["relation-search", "--atoms", "2", "--cutoff", "12"],
]
# the valid calls, argv a command's parser answers with its help or refuses, and argv only the
# full parser reads
DISPATCH_CASES = [
    *VALID_CALLS,
    *([command, "-h"] for command in cli._SUMMARIES),
    ["verify", "--out", "x.csv"],
    ["evolve", "--atoms"],
    ["verify", "--cutoff", "ten"],
    ["evolve", "--"],
    [],
    ["--help"],
    ["nosuch"],
]


def _outcome(argv, capsys):
    """main(argv) as (exit code, stdout, stderr), an argparse exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", DISPATCH_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_main_answers_as_the_full_parser(monkeypatch, capsys, argv):
    # main hands a named command's arguments to that command's parser; with no command parser
    # to hand them to, the full parser reads every argv and delegates to the same parsers
    seen = []
    build_config = cli.build_config
    monkeypatch.setattr(cli, "build_config", lambda args: seen.append(args) or build_config(args))
    direct = _outcome(argv, capsys)
    parser, _ = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    assert _outcome(argv, capsys) == direct
    if argv in VALID_CALLS:
        assert direct[0] == 0 and len(seen) == 2
    assert len(seen) in (0, 2)
    assert seen[:1] == seen[1:]


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError])
def test_internal_errors_are_not_reported_as_configuration(monkeypatch, error):
    # only ConfigError means bad input; anything else is a fault and must
    # surface as an exception, not as exit code 2
    def broken(cfg):
        raise error("internal failure")

    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    with pytest.raises(error):
        main(["verify", "--atoms", "1", *FAST])


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    for _ in range(100):
        assert main(["decompose", "--atoms", "2"]) == 2
    assert cli._build_parser.cache_info().misses == 1


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["evolve", "--atoms", "1", "--initial", "e:fock(0)", "--cutoff", "24"]
    assert main([*base, "--steps", "3", "--out", str(a)]) == 0
    assert main([*base, "--out", str(b)]) == 0  # no --steps: the default, not the last value
    assert len(_read_csv(a)[1]) == 4
    assert len(_read_csv(b)[1]) == 501


# a valid value for every option that differs from what a run without it gets
OPTION_VALUES = {
    "atoms": "2", "cutoff": "30", "guard": "5", "g": "0.5", "omega": "2.5", "t0": "1.5",
    "t1": "3", "steps": "7", "tol": "1e-6", "initial": "eg:fock(1)", "out": "run.csv",
    "max_power": "5",
}


@pytest.mark.parametrize("name", list(cli._OPTIONS))
def test_flag_and_config_key_set_the_same_field(tmp_path, monkeypatch, name):
    # --max-power and max-power = ... are the hyphenated spellings of max_power;
    # the flag goes to the first command that reads the option
    command = cli._OPTIONS[name][2][0]
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: seen.append(cfg) or 0)
    value = OPTION_VALUES[name]
    assert main([command]) == 0
    assert main([command, "--" + name.replace("_", "-"), value]) == 0
    for key in sorted({name, name.replace("_", "-")}):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        assert main([command, "--config", str(path)]) == 0
    default, from_flag, *from_file = (getattr(cfg, name) for cfg in seen)
    assert from_flag != default
    assert type(from_flag) is cli._OPTIONS[name][0]
    assert from_file == [from_flag] * (2 if "_" in name else 1)


@pytest.mark.parametrize(
    "argv, product",
    [
        (["evolve", "--initial", "e:coherent(0.5)", "--g", "1e200", "--steps", "2"], "(t*g)^2"),
        (["evolve", "--initial", "e:coherent(0.5)", "--omega", "1e307", "--t1", "100"],
         "|t*omega|"),
        (["decompose", "--t0", "1", "--g", "1e200"], "(t*g)^2"),
        # (t*g)^2 = 9e306 is finite; times the top two-atom branch 42 it is not
        (["evolve", "--atoms", "2", "--initial", "eg:fock(0)", "--g", "3e152", "--steps", "2"],
         "(t*g)^2"),
    ],
)
def test_overflowing_products_are_refused(capsys, argv, product):
    assert main([*argv, "--cutoff", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {product} * " in err and "overflows" in err


def test_large_finite_coupling_still_evolves(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["evolve", "--atoms", "2", "--cutoff", "10", "--initial", "eg:fock(0)",
                   "--g", "1e150", "--steps", "2"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def test_decompose_ignores_the_free_phase(tmp_path, capsys):
    # decompose never evaluates exp(-i t omega (S_3 + N)), so a huge omega is no overflow
    path = tmp_path / "run.cfg"
    path.write_text("omega = 1e308\n")
    assert main(["decompose", "--cutoff", "10", "--t0", "1", "--config", str(path)]) == 0


GRID_RUN = ["evolve", "--g", "0", "--omega", "0", "--initial", "e:fock(0)", "--cutoff", "24",
            "--steps", "2"]


@pytest.mark.parametrize(
    "span",
    [
        ["--t0=-1e308", "--t1", "1e308"],  # t1 - t0 overflows
        ["--t0", "0", "--t1", "1e308"],  # t1 - t0 is finite, (t1 - t0) * 2 is not
    ],
)
def test_overflowing_time_grid_is_refused(tmp_path, capsys, span):
    out = tmp_path / "grid.csv"
    assert main([*GRID_RUN, *span, "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert not out.exists()
    assert "error: (t1 - t0) * steps overflows" in err


@pytest.mark.parametrize("where, code", [("missing-directory", errno.ENOENT),
                                         ("full-device", errno.ENOSPC)],
                         ids=["missing-directory", "full-device"])
def test_an_out_file_that_cannot_be_written_exits_2_with_one_error_line(tmp_path, capsys,
                                                                        where, code):
    # the directory is missing at open; /dev/full refuses the rows when they are flushed
    path = tmp_path / "missing" / "x.csv" if where == "missing-directory" else Path("/dev/full")
    if where == "full-device" and not path.exists():
        pytest.skip("no /dev/full on this platform")
    argv = ["evolve", "--atoms", "1", *FAST, "--steps", "4", "--initial", "e:fock(0)"]
    assert main([*argv, "--out", str(path)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"error: cannot write {path}: {os.strerror(code)}\n"


def test_wide_finite_time_grid_still_evolves(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*GRID_RUN, "--t0", "0", "--t1", "1e300"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


EVOLVE_RUN = ["evolve", "--atoms", "1", "--cutoff", "10", "--initial", "e:fock(0)"]


# EVOLVE_CHUNK = 64 times: one full chunk, and one time either side of it
@pytest.mark.parametrize("steps", [62, 63, 64])
def test_evolve_times_are_the_grid_across_chunk_boundaries(capsys, steps):
    assert main([*EVOLVE_RUN, "--t1", "0.7", "--steps", str(steps)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.7 * i / steps for i in range(steps + 1)]


@pytest.mark.parametrize("atoms, initial", [(1, "e:fock(3)"), (1, "g:coherent(2.5-1i)"),
                                             (2, "gg:fock(0)"), (2, "ge:coherent(3+0.5i)")])
def test_evolve_magnitudes_on_the_window_are_those_of_whole_rows(monkeypatch, atoms, initial):
    # evolve takes |amplitude| on the window alone: with the exact zeros off it, that is np.abs
    # over whole rows byte for byte, and the CSV is the whole-row reduction of the same states
    chunks = []

    def spy(n, space, times, g, state, window):
        states = evolve_states(n, space, times, g, state, window)
        chunks.append((times, window, states.copy()))
        return states

    monkeypatch.setattr(cli, "evolve_states", spy)
    rc, out = _run(["evolve", "--atoms", str(atoms), "--cutoff", "80", "--steps", "100",
                    "--t1", "9", "--g", "1.3", "--initial", initial])
    assert rc == 0 and len(chunks) == 2
    rows = []
    for times, (lo, hi), states in chunks:
        probs = np.abs(states.reshape(len(times), 2**atoms, 80))
        windowed = np.zeros(probs.shape)
        np.abs(states.reshape(probs.shape)[..., lo:hi], out=windowed[..., lo:hi])
        assert windowed.tobytes() == probs.tobytes()
        probs *= probs
        per_label = probs.sum(axis=2)
        probs *= np.arange(80.0)
        mean_photon = probs.reshape(len(times), -1).sum(axis=1)
        norm = np.sqrt(per_label.sum(axis=1))
        rows += [",".join(format(x, ".17g") for x in (t, *p, mean, nrm)) for t, p, mean, nrm in
                 zip(times.tolist(), per_label.tolist(), mean_photon.tolist(), norm.tolist())]
    assert out.splitlines()[1:] == rows


def test_evolve_memory_does_not_grow_with_the_step_count():
    # each chunk forms its own times, so nothing held grows with --steps
    argv = [*EVOLVE_RUN, "--out", os.devnull, "--steps"]
    main([*argv, "2000"])  # first-call allocations stay out of the trace
    peaks = []
    for steps in ("2000", "40000"):
        tracemalloc.start()
        try:
            assert main([*argv, steps]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 100_000


def _traced_objects(targets) -> list:
    """The object each traced path names: a class attribute as stored, or a module function."""
    found = []
    for layer, paths in targets.items():
        module = sys.modules[f"tcprop.{layer}"]
        for path in paths:
            cls_name, _, attr = path.rpartition(".")
            found.append(vars(getattr(module, cls_name))[attr] if cls_name
                         else getattr(module, attr))
    return found


def test_every_traced_name_resolves(monkeypatch):
    # perfbench/tracing.py wraps the names in its TARGETS; a removed one fails install()
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tcprop_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(tracing)
    before = _traced_objects(tracing.TARGETS)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(x is not y for x, y in zip(_traced_objects(tracing.TARGETS), before))
    finally:
        tracer.uninstall()
    assert all(x is y for x, y in zip(_traced_objects(tracing.TARGETS), before))


def test_import_loads_no_scipy():
    # importing scipy.sparse.csgraph alone would add about half a second to
    # every process start
    src = str(Path(tcprop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, tcprop, tcprop.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_commands_load_no_scipy_and_no_numpy_ma():
    # a plain np.unique imports numpy.ma (about 1.3 MB of RSS and 15 ms) on its first call
    src = str(Path(tcprop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    commands = [
        ["verify", "--atoms", "1", "--cutoff", "24"],
        ["verify", "--atoms", "2", "--cutoff", "24"],
        ["decompose", "--cutoff", "24", "--t0", "0.3"],
        ["relation-search", "--atoms", "3", "--cutoff", "24", "--max-power", "5"],
        ["evolve", "--atoms", "2", "--cutoff", "24", "--initial", "eg:coherent(1.5)",
         "--steps", "20"],
    ]
    code = ("import contextlib, io, sys\n"
            "from tcprop.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split("\n") == ["[]", "[]", ""]


def test_a_closed_stdout_exits_141_with_nothing_on_stderr():
    # about 200 KB of CSV, more than a pipe holds, so the run is still writing when the
    # reader leaves after the header
    src = str(Path(tcprop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "tcprop", "evolve", "--atoms", "2", "--cutoff", "40",
            "--steps", "2000", "--initial", "eg:coherent(1.5)"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"t,P_ee,")
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=60)
    assert (rc, err) == (141, b"")
