"""Gate sequences: ordered primitive steps and their dense composition.

A sequence step is one of

  * CollectiveEvolution(phi, form): the fixed collective interaction for
    dimensionless time phi = eta t, with the linear S_z terms understood
    to be compensated away.  compose() renders it as `evolve` does, as
    one phase per sector projector that `thermal_evolve` shares; the
    ideal pulse equals the compensated thermal one for every nbar.
  * LocalLayer(rotations): single-qubit rotations, stored as (qubit,
    axis, angle) triples in application order; rotations on distinct
    qubits commute.  Assumed instantaneous relative to the collective
    interaction.
  * GlobalPhase(theta): multiplies by e^{i theta}.

Steps are listed in temporal order, the first acting first.  compose()
renders one stack of factors (one per pulse; one per rotation, sin(angle/2)
times a cached -i sigma on its qubit plus cos(angle/2) on the diagonal; one
per phase, on the diagonal) and multiplies neighbours pairwise, level by
level; `step_unitary` runs the same path on one step.

Each step checks its own fields when constructed: phi, angles and theta
finite, form a HamiltonianForm, axes x/y/z, qubits integers >= 1.  A
GateSequence checks its register: n_atoms in 1..3, qubits <= n_atoms,
known step types.  compose() adds only that nbar is finite and >= 0;
`step_unitary` and `local_layer_unitary` check their register as GateSequence does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import fsum
from typing import Union

import numpy as np

from .errors import _check_finite, _check_non_negative, _check_qubit
from .evolution import HamiltonianForm, _check_form, _pulses
from .gates import _AXES, _check_rotation
from .linalg import read_only
from .spin import _check_atoms, _pauli


@dataclass(frozen=True)
class CollectiveEvolution:
    phi: float
    form: HamiltonianForm = HamiltonianForm.CASIMIR

    def __post_init__(self):
        _check_finite("phi", self.phi)
        _check_form(self.form)


@dataclass(frozen=True)
class LocalLayer:
    #: (qubit, axis, angle) triples, 1-based qubits, application order.
    rotations: tuple[tuple[int, str, float], ...]

    def __post_init__(self):
        for qubit, axis, angle in self.rotations:
            _check_qubit(qubit)
            _check_rotation(axis, angle)


@dataclass(frozen=True)
class GlobalPhase:
    theta: float

    def __post_init__(self):
        _check_finite("theta", self.theta)


SequenceStep = Union[CollectiveEvolution, LocalLayer, GlobalPhase]


@dataclass(frozen=True)
class GateSequence:
    n_atoms: int
    steps: tuple[SequenceStep, ...] = field(default_factory=tuple)
    label: str = ""

    def __post_init__(self):
        _check_atoms(self.n_atoms)
        for step in self.steps:  # exact types, as `_step_unitaries` dispatches on them
            if type(step) is LocalLayer:
                for qubit, _, _ in step.rotations:
                    _check_qubit(qubit, self.n_atoms)
            elif type(step) not in (CollectiveEvolution, GlobalPhase):
                raise TypeError(f"unknown sequence step {step!r}")


@lru_cache(maxsize=None)
def _generators(n: int) -> np.ndarray:
    """Read-only (3n, d, d) rotation generators: -i sigma_axis on each qubit, its kron with
    identities, at row 3 (qubit - 1) + axis (an index into _AXES); n in 1..3."""
    return read_only(-1j * np.array([_pauli(a, q, n) for q in range(1, n + 1) for a in _AXES]))


def _step_unitaries(seq: GateSequence) -> np.ndarray:
    """(k, d, d) factors in application order: per pulse (one `_pulses` call), per rotation
    (sin(angle/2) times its `_generators` row, plus cos(angle/2) on the diagonal), per phase."""
    n, d = seq.n_atoms, 2 ** seq.n_atoms
    k, pulses, rotations, phases = 0, [], [], []  # (position in the stack, step or fields)
    for step in seq.steps:
        kind = type(step)
        if kind is LocalLayer:
            for qubit, axis, angle in step.rotations:
                rotations.append((k, 3 * qubit - 3 + _AXES.index(axis), angle / 2))
                k += 1
        else:
            (pulses if kind is CollectiveEvolution else phases).append((k, step))
            k += 1
    us = np.zeros((k, d, d), dtype=complex)
    flat = us.reshape(k, d * d)
    if pulses:
        at, steps = zip(*pulses)
        us[list(at)] = _pulses(n, [p.form for p in steps], np.array([p.phi for p in steps]))
    if rotations:
        at, rows, half = zip(*rotations)
        half = np.array(half)
        factors = _generators(n).take(rows, 0) * np.sin(half)[:, None, None]
        factors.reshape(-1, d * d)[:, ::d + 1] += np.cos(half)[:, None]
        us[list(at)] = factors
    if phases:
        at, steps = zip(*phases)
        flat[list(at), ::d + 1] = np.exp(1j * np.array([p.theta for p in steps]))[:, None]
    return us


def _product(us: np.ndarray) -> np.ndarray:
    """us[k-1] @ ... @ us[0], multiplied pairwise level by level, an odd last factor carried
    up, each level written into a reused buffer (us is one); the identity for an empty stack."""
    k = len(us)
    src, dst = us, np.empty(((k + 1) // 2, *us.shape[1:]), dtype=complex)
    while k > 1:
        pairs, odd = divmod(k, 2)
        np.matmul(src[1:2 * pairs:2], src[:2 * pairs:2], out=dst[:pairs])
        if odd:
            dst[pairs] = src[k - 1]
        src, dst, k = dst, src, pairs + odd
    return src[0].copy() if k else np.eye(us.shape[-1], dtype=complex)  # frees the buffers


def local_layer_unitary(layer: LocalLayer, n_atoms: int) -> np.ndarray:
    """Dense unitary of a rotation layer on an n-atom register, as a fresh
    array; IndexOutOfRange unless n_atoms is in 1..3 and holds every qubit."""
    return _product(_step_unitaries(GateSequence(n_atoms, (layer,))))


def step_unitary(step: SequenceStep, n_atoms: int) -> np.ndarray:
    """Dense unitary of one step, collective steps compensated; IndexOutOfRange
    unless n_atoms is in 1..3 and holds the step's qubits."""
    return _product(_step_unitaries(GateSequence(n_atoms, (step,))))


def compose(seq: GateSequence, nbar: float = 0.0) -> np.ndarray:
    """Product of the sequence's factors, first listed step acting first,
    multiplied pairwise level by level as `_product` does.

    Collective steps are compensated, so the result does not depend on
    nbar, which is only checked to be finite and >= 0.
    """
    _check_non_negative("nbar", nbar)
    return _product(_step_unitaries(seq))


def collective_time(seq: GateSequence) -> float:
    """Total collective-interaction phase, sum of |phi| (units of 1/eta).

    Local layers and global phases cost nothing under the fast-1-qubit
    assumption.
    """
    return fsum(
        abs(step.phi) for step in seq.steps if isinstance(step, CollectiveEvolution)
    )
