"""The three benchmark workloads: seeded inputs, the timed operation and
its output check.

Inputs come in rounds.  A round is a deterministic function of
(seed, stream, round index), so the traced run, the set-up children and
the timed loop each draw reproducible inputs of their own without
depending on how many rounds another phase managed to run.  Whole
rounds keep the mix of input kinds exact, which keeps medians and
throughputs from depending on where a time limit happened to fall.

This module must not import cavitygates: the set-up measurement times
that import.  Every call into the library goes through the package
object `cg` at call time, so wrappers installed by the tracer are seen.
"""

from __future__ import annotations

import random
from math import pi

import numpy as np

#: Largest |U^dagger U - 1| entry accepted for a random composition.
UNITARITY_TOL = 1e-12
#: Largest phase distance between compose(seq, nbar) and compose(seq, 0).
NBAR_TOL = 1e-9
#: Largest phase distance between a synthesized gate and its reference.
SYNTH_TOL = 1e-8
#: Largest deviation of collective_time from the paper's value.
TIME_TOL = 1e-12


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over theta of ||a - e^{i theta} b||_F, computed here so that
    the check does not rely on the library it checks."""
    overlap = np.trace(a.conj().T @ b)
    theta = -np.angle(overlap) if overlap != 0 else 0.0
    return float(np.linalg.norm(a - np.exp(1j * theta) * b))


def _permutation(n_qubits: int, flip) -> np.ndarray:
    """Permutation matrix sending basis state col to flip(col)."""
    dim = 2 ** n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        mat[flip(col), col] = 1.0
    return mat


def _cnot(n_qubits: int, control: int, target: int) -> np.ndarray:
    def flip(col):
        cbit = (col >> (n_qubits - control)) & 1
        return col ^ (cbit << (n_qubits - target))

    return _permutation(n_qubits, flip)


def _toffoli() -> np.ndarray:
    return _permutation(3, lambda col: col ^ 1 if col & 0b110 == 0b110 else col)


def _echo(branch: int) -> np.ndarray:
    """1 x exp(-i branch pi/3 sigma_z x sigma_z) on three atoms."""
    zz = np.array([1.0, -1.0, -1.0, 1.0])
    return np.kron(np.eye(2), np.diag(np.exp(-1j * branch * pi / 3 * zz)))


def _toffoli_simplified() -> np.ndarray:
    """The Toffoli with the sign of |101> flipped."""
    mat = _toffoli()
    mat[0b101, 0b101] = -1.0
    return mat


# name -> (sequence factory, reference gate, collective time in units of 1/eta)
_SYNTH = {
    "cnot2": (lambda cg: cg.cnot2_sequence(), lambda: _cnot(2, 1, 2), pi / 2),
    "echo+1": (lambda cg: cg.spin_echo_u23(+1), lambda: _echo(+1), 4 * pi / 3),
    "echo-1": (lambda cg: cg.spin_echo_u23(-1), lambda: _echo(-1), 4 * pi / 3),
    **{
        f"cnot3-{c}{t}": (
            lambda cg, c=c, t=t: cg.cnot3_sequence(c, t),
            lambda c=c, t=t: _cnot(3, c, t),
            8 * pi / 3,
        )
        for c in (1, 2, 3)
        for t in (1, 2, 3)
        if c != t
    },
    "toffoli": (lambda cg: cg.toffoli_sequence(False), _toffoli, 16 * pi),
    "toffoli-simplified": (
        lambda cg: cg.toffoli_sequence(True), _toffoli_simplified, 8 * pi
    ),
}


def _rng(seed: int, stream: str, index: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it is the same in every process.
    return random.Random(f"{seed}/{stream}/{index}")


class VerifyAll:
    """The twelve paper checks; identical input on every call."""

    name = "verify-all"

    def round(self, seed: int, stream: str, index: int) -> list:
        return [None]

    def prepare(self, cg, item):
        return None

    def run(self, cg, args):
        return cg.run_checks("all")

    def check(self, cg, item, args, reports) -> bool:
        return len(reports) == 12 and all(report.passed for report in reports)

    def units(self, item) -> int:
        return 1


class Synthesize:
    """Build one of the eleven named sequences from scratch and compose it.

    A round is one seeded permutation of all eleven names.
    """

    name = "synthesize"
    names = tuple(_SYNTH)

    def __init__(self):
        self._refs = {name: ref() for name, (_, ref, _) in _SYNTH.items()}

    def round(self, seed: int, stream: str, index: int) -> list:
        order = list(self.names)
        _rng(seed, stream, index).shuffle(order)
        return order

    def prepare(self, cg, item):
        return _SYNTH[item][0]

    def run(self, cg, build):
        seq = build(cg)
        return seq, cg.compose(seq)

    def check(self, cg, item, build, result) -> bool:
        seq, u = result
        want_time = _SYNTH[item][2]
        return (
            phase_distance(u, self._refs[item]) <= SYNTH_TOL
            and abs(cg.collective_time(seq) - want_time) <= TIME_TOL
        )

    def units(self, item) -> int:
        return 1


class RandomCompose:
    """Compose a seeded random sequence at a random nbar > 0.

    Every sequence has STEPS steps, COLLECTIVE of them collective pulses
    at fresh random phases and forms, the rest random rotation layers.
    A round holds four three-atom sequences and one two-atom sequence, so
    the median falls well inside the three-atom group rather than near
    the two-atom times.
    """

    name = "random-compose"
    STEPS = 24
    COLLECTIVE = 12
    ATOMS_PER_ROUND = (3, 3, 3, 3, 2)

    def round(self, seed: int, stream: str, index: int) -> list:
        rng = _rng(seed, stream, index)
        atoms = list(self.ATOMS_PER_ROUND)
        rng.shuffle(atoms)
        return [self._spec(rng, n) for n in atoms]

    def _spec(self, rng: random.Random, n_atoms: int):
        kinds = [True] * self.COLLECTIVE + [False] * (self.STEPS - self.COLLECTIVE)
        rng.shuffle(kinds)
        steps = []
        for collective in kinds:
            if collective:
                steps.append(("evolve", rng.uniform(0.05, 2 * pi), rng.choice(("ladder", "casimir"))))
            else:
                qubits = [q for q in range(1, n_atoms + 1) if rng.random() < 0.75]
                qubits = qubits or [rng.randint(1, n_atoms)]
                steps.append(
                    ("local", tuple((q, rng.choice("xyz"), rng.uniform(-pi, pi)) for q in qubits))
                )
        return n_atoms, rng.uniform(0.1, 4.0), tuple(steps)

    def prepare(self, cg, spec):
        n_atoms, nbar, steps = spec
        built = []
        for step in steps:
            if step[0] == "evolve":
                built.append(cg.CollectiveEvolution(step[1], cg.HamiltonianForm(step[2])))
            else:
                built.append(cg.LocalLayer(step[1]))
        return cg.GateSequence(n_atoms, tuple(built)), nbar

    def run(self, cg, args):
        seq, nbar = args
        return cg.compose(seq, nbar=nbar)

    def check(self, cg, spec, args, u) -> bool:
        seq, _ = args
        drift = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
        return (
            drift <= UNITARITY_TOL
            and phase_distance(u, cg.compose(seq, nbar=0.0)) <= NBAR_TOL
        )

    def units(self, item) -> int:
        return self.STEPS


WORKLOADS = {wl.name: wl for wl in (VerifyAll, Synthesize, RandomCompose)}
