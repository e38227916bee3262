"""Gate sequences: ordered primitive steps and their dense composition.

A sequence step is one of

  * CollectiveEvolution(phi, form): the fixed collective interaction for
    dimensionless time phi = eta t, with the linear S_z terms understood
    to be compensated away.  compose() renders it as the ideal
    `evolve`, which equals the compensated thermal evolution for every
    mean photon number.
  * LocalLayer(rotations): single-qubit rotations, stored as (qubit,
    axis, angle) triples in application order; rotations on distinct
    qubits commute.  Assumed instantaneous relative to the collective
    interaction.
  * GlobalPhase(theta): multiplies by e^{i theta}.

Steps are listed in temporal order: compose() multiplies right-to-left,
so the first step acts first.

Each step checks its own fields when constructed: phi, angles and theta
finite, form a HamiltonianForm, axes x/y/z, qubits integers >= 1.  A
GateSequence checks its register: n_atoms in 1..3, qubits <= n_atoms,
known step types.  compose() adds only the nbar check; the builders it
calls check their raw arguments as they do for any caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from typing import Union

import numpy as np

from .errors import _check_finite, _check_qubit
from .evolution import HamiltonianForm, _check_form, evolve
from .gates import _check_rotation, rotation
from .linalg import kron, read_only
from .spin import _check_atoms


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
        for step in self.steps:
            if isinstance(step, LocalLayer):
                for qubit, _, _ in step.rotations:
                    _check_qubit(qubit, self.n_atoms)
            elif not isinstance(step, (CollectiveEvolution, GlobalPhase)):
                raise TypeError(f"unknown sequence step {step!r}")


_IDENTITY_2 = read_only(np.eye(2, dtype=complex))


def local_layer_unitary(layer: LocalLayer, n_atoms: int) -> np.ndarray:
    """Dense unitary of a rotation layer on an n-atom register, as a fresh
    array; IndexOutOfRange unless n_atoms is in 1..3 and holds every qubit."""
    singles = [_IDENTITY_2] * _check_atoms(n_atoms)
    for qubit, axis, angle in layer.rotations:
        _check_qubit(qubit, n_atoms)
        single = rotation(axis, angle)
        # later rotations act after (left of) earlier ones; the first is kept as is
        prior = singles[qubit - 1]
        singles[qubit - 1] = single if prior is _IDENTITY_2 else single @ prior
    return kron(*singles)


def step_unitary(step: SequenceStep, n_atoms: int) -> np.ndarray:
    """Dense unitary of one step, collective steps compensated; IndexOutOfRange
    unless n_atoms is in 1..3 and holds the step's qubits."""
    if isinstance(step, CollectiveEvolution):
        return evolve(n_atoms, step.phi, step.form)
    if isinstance(step, LocalLayer):
        return local_layer_unitary(step, n_atoms)
    if isinstance(step, GlobalPhase):
        return np.exp(1j * step.theta) * np.eye(2 ** _check_atoms(n_atoms), dtype=complex)
    raise TypeError(f"unknown sequence step {step!r}")


def compose(seq: GateSequence, nbar: float = 0.0) -> np.ndarray:
    """Multiply the step unitaries, first listed step acting first.

    Collective steps are compensated, so the result does not depend on
    nbar, which is only checked to be finite.
    """
    _check_finite("nbar", nbar)
    out = np.eye(2 ** seq.n_atoms, dtype=complex)
    for step in seq.steps:
        out = step_unitary(step, seq.n_atoms) @ out
    return out


def collective_time(seq: GateSequence) -> float:
    """Total collective-interaction phase, sum of |phi| (units of 1/eta).

    Local layers and global phases cost nothing under the fast-1-qubit
    assumption.
    """
    return fsum(
        abs(step.phi) for step in seq.steps if isinstance(step, CollectiveEvolution)
    )
