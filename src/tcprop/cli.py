"""Command line interface.

Subcommands: verify (invariant suite), evolve (state trajectory to CSV),
decompose (triangular factorization report), relation-search (diagonal
relation fit).  Exit codes: 0 success, 1 check or singularity failure,
2 invalid configuration or arguments; the console script exits 141 when
its reader closes stdout.

Options may come from a config file of ``key = value`` lines (``#``
comments allowed); explicit command line flags win over the file, the file
wins over defaults.  No command uses randomness, so identical
configurations produce identical output bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, make_dataclass

import numpy as np

from .fock import FockSpace
from .oracle import relation_fits
from .propagator import GaussSingularityError, evolve_states, largest_branch
from .spinchain import atomic_labels
from .verify import gauss_deviations, run_checks

__all__ = ["ConfigError", "RunConfig", "InitialStateSpec", "main", "entry"]

COHERENT_WEIGHT_TOL = 1e-10
# the largest |alpha|^2 whose coherent weight exp(-|alpha|^2 / 2) is a normal float; past it
# the weight of |0> loses precision (from about 1490 on it is 0), so build_state refuses
COHERENT_MEAN_MAX = -2 * math.log(sys.float_info.min)
# time points propagated together by evolve; bounds its memory at
# O(2**atoms * cutoff * EVOLVE_CHUNK) for any step count
EVOLVE_CHUNK = 64
# evolve propagates the levels where |psi_m| > EVOLVE_EPS max|psi|, widened by the atom count
EVOLVE_EPS = 1e-17
# bytes per Fock level of (command, atoms): the peak-RSS slope between cutoffs 1e4 and 2e4,
# rounded up (for verify and relation-search, 1.05 times it, up to the next 1000); a run
# whose estimate passes MEMORY_BUDGET is refused before it builds anything
BYTES_PER_LEVEL = {("verify", 1): 3_000, ("verify", 2): 10_000, ("verify", 3): 7_000,
                   ("evolve", 1): 4_000, ("evolve", 2): 7_000, ("decompose", 1): 2_000,
                   ("relation-search", 1): 1_000, ("relation-search", 2): 2_000,
                   ("relation-search", 3): 7_000}
MEMORY_BUDGET = 2 * 2**30
# the status a shell reports for a process ended by SIGPIPE (128 + 13)
EXIT_BROKEN_PIPE = 141


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


# subcommand -> its --help summary
_SUMMARIES = {
    "verify": "run the invariant check suite",
    "evolve": "write a state trajectory as CSV",
    "decompose": "triangular factorization report (atoms=1)",
    "relation-search": "fit diagonal relations A^p = D A^(p-2)",
}
_ALL = tuple(_SUMMARIES)

# Every option but --config, in --help order: name -> (type, default, commands, help).
# The name is the RunConfig field, the config-file key and, hyphenated, the flag;
# only the listed commands take the flag and validate the value, but every
# command accepts the config key.
_OPTIONS = {
    "atoms": (int, 1, _ALL, "number of atoms (1, 2 or 3; default 1)"),
    "cutoff": (int, 60, _ALL, "Fock space cutoff (default 60)"),
    "guard": (int, None, _ALL, "guard band width (default max(4, cutoff/8))"),
    "g": (float, 1.0, ("evolve", "decompose"), "coupling strength (default 1)"),
    "omega": (float, 1.0, ("evolve",), "mode and transition frequency (default 1)"),
    "t0": (float, 0.0, ("evolve", "decompose"),
           "start time (default 0); decompose evaluates here"),
    "t1": (float, 10.0, ("evolve",), "end time (default 10)"),
    "steps": (int, 500, ("evolve",), "number of time steps (default 500)"),
    "tol": (float, 1e-9, ("verify", "decompose"), "comparison tolerance (default 1e-9)"),
    "initial": (str, None, ("evolve",), "initial state, e.g. e:fock(0) or ee:coherent(1.5)"),
    "out": (str, None, ("evolve",), "CSV output path (default stdout)"),
    "max_power": (int, 3, ("relation-search",), "highest relation power, 3 or 5"),
}


@dataclass(frozen=True)
class InitialStateSpec:
    """Parsed ``<atomic>:fock(<m>)`` or ``<atomic>:coherent(<re>[+<im>i])``."""

    atomic: str
    kind: str
    fock_level: int | None = None
    alpha: complex | None = None


RunConfig = make_dataclass(
    "RunConfig",
    [(name, kind if default is not None else kind | None)
     for name, (kind, default, _, _) in _OPTIONS.items()],
    frozen=True,
    namespace={"__module__": __name__, "__doc__": "Validated options, one field per option."},
)


def read_config_file(path: str) -> dict:
    """Parse a plain key=value config file into typed values."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _OPTIONS[key][0](text.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {text.strip()!r}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and flags; validate what the command reads and its memory."""
    merged = {key: default for key, (_, default, _, _) in _OPTIONS.items()}
    if args.config is not None:
        merged.update(read_config_file(args.config))
    flags = {key: getattr(args, key, None) for key in _OPTIONS}
    merged.update({key: value for key, value in flags.items() if value is not None})
    reads = [key for key, (_, _, commands, _) in _OPTIONS.items() if args.command in commands]

    if merged["atoms"] not in (1, 2, 3):
        raise ConfigError(f"atoms must be 1, 2 or 3, got {merged['atoms']}")
    try:
        merged["guard"] = FockSpace(merged["cutoff"], merged["guard"]).guard
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key in reads:
        if _OPTIONS[key][0] is float and not math.isfinite(merged[key]):
            raise ConfigError(f"{key} must be finite, got {merged[key]}")
    if "tol" in reads and merged["tol"] <= 0:
        raise ConfigError(f"tol must be positive, got {merged['tol']}")
    if "max_power" in reads and merged["max_power"] not in (3, 5):
        raise ConfigError(f"max-power must be 3 or 5, got {merged['max_power']}")
    # an atom count the command refuses has no entry; the command says why
    atoms, cutoff = merged["atoms"], merged["cutoff"]
    if BYTES_PER_LEVEL.get((args.command, atoms), 0) * cutoff > MEMORY_BUDGET:
        raise ConfigError(f"{args.command} at atoms={atoms}, cutoff={cutoff} would pass its "
                          f"{MEMORY_BUDGET / 2**30:g} GiB memory budget; lower the cutoff")
    return RunConfig(**merged)


_INITIAL_RE = re.compile(r"(?P<atomic>[eg]+):(?P<kind>fock|coherent)\((?P<arg>[^)]*)\)")
_COMPLEX_RE = re.compile(
    r"(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?"
)


def parse_initial(text: str, atoms: int) -> InitialStateSpec:
    """Parse the initial-state grammar and check the atomic label length."""
    match = _INITIAL_RE.fullmatch(text.strip())
    if match is None:
        raise ConfigError(
            f"bad initial state {text!r}; expected <atomic>:fock(<m>) or "
            "<atomic>:coherent(<re>[+<im>i]) with atomic letters e/g"
        )
    atomic = match.group("atomic")
    if len(atomic) != atoms:
        raise ConfigError(
            f"atomic label {atomic!r} has {len(atomic)} letters, expected {atoms}"
        )
    arg = match.group("arg").strip()
    if match.group("kind") == "fock":
        try:
            level = int(arg)
        except ValueError as exc:
            raise ConfigError(f"bad fock level {arg!r}") from exc
        if level < 0:
            raise ConfigError(f"fock level must be >= 0, got {level}")
        return InitialStateSpec(atomic=atomic, kind="fock", fock_level=level)
    cmatch = _COMPLEX_RE.fullmatch(arg)
    if cmatch is None:
        raise ConfigError(f"bad coherent amplitude {arg!r}; expected <re> or <re>+<im>i")
    alpha = complex(float(cmatch.group("re")), float(cmatch.group("im") or 0.0))
    return InitialStateSpec(atomic=atomic, kind="coherent", alpha=alpha)


def build_state(spec: InitialStateSpec, space: FockSpace) -> np.ndarray:
    """Composite state vector for a parsed initial-state spec.

    Fock levels must sit inside the trusted band.  Coherent amplitudes are
    truncated at the cutoff, refused if the discarded weight exceeds 1e-10
    or if |alpha|^2 strays past a quarter of the top trusted level, and
    renormalized after truncation.  Past |alpha|^2 = COHERENT_MEAN_MAX the
    weight exp(-|alpha|^2 / 2) of |0> is no normal float, so the state is
    refused first, at any cutoff: no cutoff brings that weight back.
    """
    top_trusted = space.trusted - 1
    if spec.kind == "fock":
        if spec.fock_level > top_trusted:
            raise ConfigError(
                f"fock level {spec.fock_level} exceeds the top trusted level {top_trusted}"
            )
        field = np.zeros(space.cutoff, dtype=complex)
        field[spec.fock_level] = 1.0
    else:
        alpha = spec.alpha
        mean = abs(alpha) ** 2
        if mean > COHERENT_MEAN_MAX:
            raise ConfigError(
                f"coherent state at |alpha|^2 = {mean:.3f} cannot be built: exp(-|alpha|^2/2) "
                f"underflows past |alpha|^2 = {COHERENT_MEAN_MAX:.3f}, and no cutoff can fix this"
            )
        if mean > top_trusted / 4:
            raise ConfigError(
                f"|alpha|^2 = {mean:.3f} exceeds (cutoff-1-guard)/4 = {top_trusted / 4:.3f}; "
                "raise the cutoff"
            )
        # the recurrence on complex128 scalars, as one array would round it, gathered once
        value = np.complex128(math.exp(-mean / 2))
        values = [value]
        alpha = np.complex128(alpha)
        for root in np.sqrt(np.arange(1.0, space.cutoff)).tolist():
            value = value * alpha / root
            values.append(value)
        field = np.array(values)
        kept = float(np.sum(np.abs(field) ** 2))
        discarded = max(0.0, 1.0 - kept)
        if discarded > COHERENT_WEIGHT_TOL:
            raise ConfigError(
                f"coherent state loses weight {discarded:.3e} past the cutoff "
                f"(> {COHERENT_WEIGHT_TOL:.0e}); raise the cutoff"
            )
        field /= math.sqrt(kept)
    state = np.zeros(2 ** len(spec.atomic) * space.cutoff, dtype=complex)
    k = atomic_labels(len(spec.atomic)).index(spec.atomic)
    state[k * space.cutoff : (k + 1) * space.cutoff] = field
    return state


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _refuse_overflow(cfg: RunConfig, times, free_phase: bool = True) -> None:
    """Refuse times whose largest spectral argument or free phase is not a finite float."""
    branch = largest_branch(cfg.atoms, cfg.cutoff)
    top = cfg.cutoff - 1 + cfg.atoms / 2
    for t in times:
        tg = t * cfg.g
        if not math.isfinite(tg * tg * branch):
            raise ConfigError(f"(t*g)^2 * {branch} overflows at t={t:g}, g={cfg.g:g}")
        if free_phase and not math.isfinite(abs(t * cfg.omega) * top):
            raise ConfigError(f"|t*omega| * {top:g} overflows at t={t:g}, omega={cfg.omega:g}")


def _refuse_narrow_guard(command: str, cfg: RunConfig) -> None:
    """Refuse a propagator run whose guard band is narrower than the atom count.

    The excitation sector of a trusted level reaches ``atoms`` levels above
    it, so with fewer guard levels the cut falls inside a trusted sector.
    """
    if cfg.atoms < 3 and cfg.guard < cfg.atoms:
        raise ConfigError(f"{command} with atoms={cfg.atoms} needs guard >= {cfg.atoms} "
                          f"(and cutoff >= {cfg.atoms + 2}), got guard={cfg.guard}")


def cmd_evolve(cfg: RunConfig) -> int:
    if cfg.t1 < cfg.t0:
        raise ConfigError(f"t1 must be >= t0, got t0={cfg.t0}, t1={cfg.t1}")
    if cfg.steps < 1:
        raise ConfigError(f"steps must be >= 1, got {cfg.steps}")
    if cfg.atoms == 3:
        raise ConfigError(
            "no closed-form propagator exists for three atoms; evolve supports atoms=1 or 2"
        )
    if cfg.initial is None:
        raise ConfigError("evolve requires --initial (or initial= in the config file)")
    _refuse_narrow_guard("evolve", cfg)
    _refuse_overflow(cfg, (cfg.t0, cfg.t1))
    # every time below is formed through (t1 - t0) * i with i <= steps
    if not math.isfinite((cfg.t1 - cfg.t0) * cfg.steps):
        raise ConfigError(
            f"(t1 - t0) * steps overflows at t0={cfg.t0:g}, t1={cfg.t1:g}, steps={cfg.steps}"
        )
    spec = parse_initial(cfg.initial, cfg.atoms)
    space = FockSpace(cfg.cutoff, cfg.guard)
    psi0 = build_state(spec, space)
    # An amplitude left out is below 1e-17 of the largest (weight 1e-34), and U mixes only
    # levels within n: only rows within n of the cut move, by about that, where the kept
    # amplitudes are small too, so no printed sum moves by an ulp (tests/test_cli.py checks)
    magnitude = np.abs(psi0)
    levels = np.flatnonzero(magnitude > EVOLVE_EPS * magnitude.max()) % cfg.cutoff
    window = (max(0, int(levels.min()) - cfg.atoms),
              min(cfg.cutoff, int(levels.max()) + 1 + cfg.atoms))
    labels = atomic_labels(cfg.atoms)
    m_values = np.arange(cfg.cutoff, dtype=float)

    row = ",".join(["%.17g"] * (len(labels) + 3)) + "\n"  # the format of _fmt
    try:
        with (
            open(cfg.out, "w", encoding="utf-8", newline="")
            if cfg.out is not None
            else contextlib.nullcontext(sys.stdout)
        ) as fh:
            fh.write(",".join(["t", *[f"P_{lab}" for lab in labels], "mean_photon", "norm"])
                     + "\n")
            for start in range(0, cfg.steps + 1, EVOLVE_CHUNK):
                stop = min(start + EVOLVE_CHUNK, cfg.steps + 1)
                chunk = [cfg.t0 + (cfg.t1 - cfg.t0) * i / cfg.steps for i in range(start, stop)]
                # one pass per chunk over whole rows (the window alone would regroup the pairwise
                # sums), in place, each sum over one row in the same order at every time
                probs = np.abs(evolve_states(cfg.atoms, space, np.array(chunk), cfg.omega, cfg.g,
                                             psi0, window).reshape(len(chunk), len(labels), -1))
                probs *= probs
                per_label = probs.sum(axis=2)
                probs *= m_values
                mean_photon = probs.reshape(len(chunk), -1).sum(axis=1)
                del probs  # before the next chunk's amplitudes
                norm = np.sqrt(per_label.sum(axis=1))
                fh.writelines(row % (t, *p, mean, nrm) for t, p, mean, nrm in
                              zip(chunk, per_label.tolist(), mean_photon.tolist(), norm.tolist()))
    except OSError as exc:
        # stdout's own errors (a closed pipe) are the console script's to handle
        if cfg.out is None:
            raise
        raise ConfigError(f"cannot write {cfg.out}: {exc.strerror or exc}") from exc
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    _refuse_narrow_guard("verify", cfg)
    space = FockSpace(cfg.cutoff, cfg.guard)
    results, notes = run_checks(cfg.atoms, space, cfg.tol)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        extra = f"  ({res.note})" if res.note else ""
        print(
            f"{status} {res.name:28s} deviation {res.deviation:.3e}  tol {res.tol:.3e}{extra}"
        )
    for note in notes:
        print(f"note: {note}")
    failed = sum(not res.passed for res in results)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def cmd_decompose(cfg: RunConfig) -> int:
    if cfg.atoms != 1:
        raise ConfigError("the triangular factorization exists for one atom only (atoms=1)")
    _refuse_overflow(cfg, (cfg.t0,), free_phase=False)
    space = FockSpace(cfg.cutoff, cfg.guard)
    t, g = cfg.t0, cfg.g
    product_dev, variant_dev = gauss_deviations(space, t, g)
    print(f"factorization at t={_fmt(t)}, g={_fmt(g)}, cutoff={cfg.cutoff}, guard={cfg.guard}")
    print(f"product vs closed form deviation {product_dev:.3e} (tol {cfg.tol:.3e})")
    print(f"lower-factor variant agreement  {variant_dev:.3e}")
    return 0 if product_dev <= cfg.tol else 1


def cmd_relation_search(cfg: RunConfig) -> int:
    space = FockSpace(cfg.cutoff, cfg.guard)
    shown = 10
    powers = tuple(power for power in (3, 5) if power <= cfg.max_power)
    for report in relation_fits(cfg.atoms, space, powers):
        power = report.target_power
        print(f"relation A^{power} = D A^{power - 2} for atoms={cfg.atoms}")
        print(f"relative residual {report.relative_residual:.6e}")
        for k, vals in enumerate(report.best_fit_values[:, : shown + 1].tolist()):
            head = ", ".join(
                "unconstrained" if math.isnan(v) else format(v, ".12g") for v in vals[:shown]
            )
            more = " ..." if len(vals) > shown else ""
            print(f"  block {k}: [{head}{more}]")
        histo = Counter(report.sector_min_poly_degrees.values())
        histo_text = ", ".join(f"degree {d}: {c} sectors" for d, c in sorted(histo.items()))
        print(f"  sector minimal-polynomial degrees: {histo_text}")
        if report.relative_residual > 1e-6:
            print(
                "  no diagonal relation of this shape fits "
                "(informational; expected for three atoms)"
            )
    return 0


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: refuses an unknown argument under its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, as parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tcprop",
        description="Closed-form atom-cavity propagators on a truncated Fock space",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, summary in _SUMMARIES.items():
        # no prefix matching: verify --g would otherwise set --guard
        cmd_parser = sub.add_parser(command, help=summary, allow_abbrev=False)
        cmd_parser.add_argument("--config", metavar="PATH", help="key=value config file")
        for name, (kind, _, commands, text) in _OPTIONS.items():
            if command in commands:
                flag = "--" + name.replace("_", "-")
                metavar = "PATH" if name == "out" else None
                cmd_parser.add_argument(flag, type=kind, metavar=metavar, help=text)
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "evolve": cmd_evolve,
    "decompose": cmd_decompose,
    "relation-search": cmd_relation_search,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GaussSingularityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The console script: :func:`main` on the process's arguments, as the exit status.

    A reader that closes stdout early (``tcprop evolve ... | head``) ends
    the run with status 141, as a shell reports a process a closed pipe
    ended (128 + SIGPIPE), and nothing on stderr.
    """
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here if the output fit the buffer
    except BrokenPipeError:
        # stdout's unwritten bytes go to devnull, so the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
