"""Seeded request streams for the three benchmark workloads.

A workload is an endless sequence of *cycles*.  Every cycle holds the same
fixed table of request classes (command, atom count, cutoff, step count),
so the work per cycle does not depend on the seed; the seed draws the
parameters that do not change the amount of work (initial state, times,
couplings, guard band, refusal details) and the order within the cycle.
Runs therefore differ in their inputs but measure the same mix, and the
runner times whole cycles only.

Each request carries the exit code it must end with and the parameters the
independent checker in ``reference.py`` needs to grade its output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("trajectory", "validation", "relation-search")

# (atoms, cutoff, steps).  Step counts shrink as the per-time-point cost
# grows so that no single request dominates a cycle.
TRAJECTORY_CLASSES = (
    (1, 40, 24), (1, 40, 48), (1, 80, 16), (1, 80, 32), (1, 160, 8), (1, 160, 16),
    (2, 40, 16), (2, 40, 32), (2, 80, 8), (2, 80, 16), (2, 160, 4), (2, 160, 8),
)
# (atoms, cutoff).  Cutoff 400 stays out: verify --atoms 2 takes about a
# minute there on a 2-core machine, longer than a whole run.  (1, 80) comes
# three times so that the median latency of a cycle (11 requests) is the
# middle (1, 80) request, not a boundary between classes whose latencies
# overlap, such as (1, 80) and (2, 40).
VERIFY_CLASSES = ((1, 40), (1, 80), (1, 80), (1, 80), (1, 120), (2, 40), (2, 80), (2, 120))
DECOMPOSE_CUTOFFS = (40, 80, 120)
# (atoms, cutoff): three atoms (no closed form) plus 1- and 2-atom controls.
RELATION_CLASSES = (
    (3, 60), (3, 60), (3, 100), (3, 100), (3, 140), (3, 140),
    (1, 140), (2, 60), (2, 140),
)
DECOMPOSE_TOL = 1e-9


def default_guard(cutoff: int) -> int:
    """The CLI's documented default guard: max(4, ceil(cutoff/8)), keeping two levels trusted."""
    return min(cutoff - 2, max(4, -(-cutoff // 8)))


@dataclass
class Request:
    """One CLI invocation with its expected exit code and checking parameters.

    ``label`` names the request class, so latencies can be grouped and a
    failure report says what kind of request failed.
    """

    label: str
    argv: list[str]
    expect_rc: int
    params: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _complex_arg(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_num(z.real)}{sign}{_num(abs(z.imag))}i"


def _evolve(rng: random.Random, atoms: int, cutoff: int, steps: int) -> Request:
    trusted = cutoff - default_guard(cutoff)
    atomic = "".join(rng.choice("eg") for _ in range(atoms))
    t0 = round(rng.uniform(0.0, 2.0), 6)
    t1 = round(t0 + rng.uniform(1.0, 20.0), 6)
    g = round(rng.uniform(0.5, 2.0), 6)
    omega = round(rng.uniform(0.5, 2.0), 6)
    params = dict(atoms=atoms, cutoff=cutoff, steps=steps, t0=t0, t1=t1, g=g, omega=omega,
                  atomic=atomic)
    if rng.random() < 0.5:
        level = rng.randrange(trusted)
        initial = f"{atomic}:fock({level})"
        params.update(kind="fock", level=level)
    else:
        # |alpha|^2 at most an eighth of the top trusted level keeps the
        # Poisson tail past the cutoff far below the CLI's 1e-10 refusal limit.
        mean = rng.uniform(0.25, (trusted - 1) / 8)
        phase = rng.uniform(0.0, 2 * math.pi)
        alpha = complex(round(math.sqrt(mean) * math.cos(phase), 6),
                        round(math.sqrt(mean) * math.sin(phase), 6))
        initial = f"{atomic}:coherent({_complex_arg(alpha)})"
        params.update(kind="coherent", alpha=[alpha.real, alpha.imag])
    argv = ["evolve", "--atoms", str(atoms), "--cutoff", str(cutoff), "--steps", str(steps),
            "--t0", _num(t0), "--t1", _num(t1), "--g", _num(g), "--omega", _num(omega),
            "--initial", initial]
    return Request(f"evolve/a{atoms}/c{cutoff}/s{steps}", argv, 0, params)


def _evolve_refusals(rng: random.Random) -> list[Request]:
    """Evolve requests the CLI must refuse with exit code 2."""
    cutoff = rng.choice((40, 80, 160))
    trusted = cutoff - default_guard(cutoff)
    atoms = rng.choice((1, 2))
    atomic = "".join(rng.choice("eg") for _ in range(atoms))
    level = rng.randrange(trusted, cutoff)
    past_band = Request(
        "refuse/fock-past-band",
        ["evolve", "--atoms", str(atoms), "--cutoff", str(cutoff), "--steps", "4",
         "--initial", f"{atomic}:fock({level})"],
        2, dict(phrase="exceeds the top trusted level"),
    )
    three = "".join(rng.choice("eg") for _ in range(3))
    three_atoms = Request(
        "refuse/evolve-three-atoms",
        ["evolve", "--atoms", "3", "--cutoff", str(cutoff), "--steps", "4",
         "--initial", f"{three}:fock(0)"],
        2, dict(phrase="no closed-form propagator exists for three atoms"),
    )
    t0 = round(rng.uniform(1.0, 5.0), 6)
    t1 = round(t0 - rng.uniform(0.1, 1.0), 6)
    backwards = Request(
        "refuse/t1-before-t0",
        ["evolve", "--atoms", str(atoms), "--cutoff", str(cutoff), "--steps", "4",
         "--t0", _num(t0), "--t1", _num(t1), "--initial", f"{atomic}:fock(0)"],
        2, dict(phrase="t1 must be >= t0"),
    )
    return [past_band, three_atoms, backwards]


def _verify(rng: random.Random, atoms: int, cutoff: int) -> Request:
    guard = default_guard(cutoff) + rng.randrange(3)
    argv = ["verify", "--atoms", str(atoms), "--cutoff", str(cutoff), "--guard", str(guard)]
    return Request(f"verify/a{atoms}/c{cutoff}", argv, 0, dict(atoms=atoms))


def _decompose(rng: random.Random) -> Request:
    cutoff = rng.choice(DECOMPOSE_CUTOFFS)
    g = round(rng.uniform(0.5, 2.0), 6)
    # Keep t g sqrt(m) below pi/2 on every level, so no cosine comes near
    # zero and the factors stay well conditioned.
    t0 = round(rng.uniform(0.1, 0.9) * math.pi / (2 * g * math.sqrt(cutoff - 1)), 9)
    argv = ["decompose", "--atoms", "1", "--cutoff", str(cutoff), "--t0", _num(t0),
            "--g", _num(g), "--tol", _num(DECOMPOSE_TOL)]
    return Request(f"decompose/c{cutoff}", argv, 0, dict(tol=DECOMPOSE_TOL))


def _decompose_singular(rng: random.Random) -> Request:
    """Decompose at t0 = pi/(2 g sqrt(m)), where cos(t g sqrt(m)) vanishes.

    No lower level is singular there (sqrt(m'/m) < 1 is never an odd
    integer), so the refusal must name level m and exit with code 1.
    """
    cutoff = rng.choice(DECOMPOSE_CUTOFFS)
    level = rng.randrange(1, cutoff)
    g = round(rng.uniform(0.5, 2.0), 6)
    t0 = math.pi / (2 * g * math.sqrt(level))
    argv = ["decompose", "--atoms", "1", "--cutoff", str(cutoff), "--t0", _num(t0),
            "--g", _num(g)]
    return Request("refuse/decompose-singular", argv, 1, dict(phrase=f"at level m={level} ("))


def _relation_search(rng: random.Random, atoms: int, cutoff: int) -> Request:
    guard = default_guard(cutoff) + rng.randrange(3)
    argv = ["relation-search", "--atoms", str(atoms), "--cutoff", str(cutoff),
            "--guard", str(guard), "--max-power", "5"]
    return Request(f"relation-search/a{atoms}/c{cutoff}", argv, 0,
                   dict(atoms=atoms, cutoff=cutoff, guard=guard))


def _cycle(workload: str, rng: random.Random) -> list[Request]:
    if workload == "trajectory":
        reqs = [_evolve(rng, *cls) for cls in TRAJECTORY_CLASSES] + _evolve_refusals(rng)
    elif workload == "validation":
        reqs = [_verify(rng, *cls) for cls in VERIFY_CLASSES]
        reqs += [_decompose(rng), _decompose(rng), _decompose_singular(rng)]
    else:
        reqs = [_relation_search(rng, *cls) for cls in RELATION_CLASSES]
    rng.shuffle(reqs)
    return reqs


def cycles(workload: str, seed: int):
    """Endless request cycles for ``workload``; the same seed gives the same sequence."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield _cycle(workload, rng)
