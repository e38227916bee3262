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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum, isfinite
from typing import Union

import numpy as np

from .errors import IndexOutOfRange, InvalidAxis, NonFiniteValue
from .evolution import HamiltonianForm, _check_finite, evolve
from .gates import _PAULI_SPECTRA, rotation
from .linalg import kron, read_only
from .spin import _check_atoms


@dataclass(frozen=True)
class CollectiveEvolution:
    phi: float
    form: HamiltonianForm = HamiltonianForm.CASIMIR


@dataclass(frozen=True)
class LocalLayer:
    #: (qubit, axis, angle) triples, 1-based qubits, application order.
    rotations: tuple[tuple[int, str, float], ...]


@dataclass(frozen=True)
class GlobalPhase:
    theta: float


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
                for qubit, axis, angle in step.rotations:
                    if not 1 <= qubit <= self.n_atoms:
                        raise IndexOutOfRange(
                            f"rotation on qubit {qubit} outside register of "
                            f"size {self.n_atoms}"
                        )
                    if axis not in _PAULI_SPECTRA:
                        raise InvalidAxis(
                            f"rotation axis must be one of x, y, z; got {axis!r}"
                        )
                    if not isfinite(angle):
                        raise NonFiniteValue(
                            f"rotation angle must be finite, got {angle}"
                        )
            elif isinstance(step, CollectiveEvolution) and not isfinite(step.phi):
                raise NonFiniteValue(f"phi must be finite, got {step.phi}")
            elif isinstance(step, GlobalPhase) and not isfinite(step.theta):
                raise NonFiniteValue(f"theta must be finite, got {step.theta}")


_IDENTITY_2 = read_only(np.eye(2, dtype=complex))


def local_layer_unitary(layer: LocalLayer, n_atoms: int) -> np.ndarray:
    """Dense unitary of a rotation layer on an n-atom register, as a fresh array."""
    singles = [_IDENTITY_2] * n_atoms
    for qubit, axis, angle in layer.rotations:
        if not 1 <= qubit <= n_atoms:
            raise IndexOutOfRange(f"qubit {qubit} outside register of size {n_atoms}")
        single = rotation(axis, angle)
        # later rotations act after (left of) earlier ones; the first is kept as is
        prior = singles[qubit - 1]
        singles[qubit - 1] = single if prior is _IDENTITY_2 else single @ prior
    return kron(*singles)


def step_unitary(step: SequenceStep, n_atoms: int) -> np.ndarray:
    """Dense unitary of one step; collective steps are compensated."""
    if isinstance(step, CollectiveEvolution):
        return evolve(n_atoms, step.phi, step.form)
    if isinstance(step, LocalLayer):
        return local_layer_unitary(step, n_atoms)
    if isinstance(step, GlobalPhase):
        return np.exp(1j * step.theta) * np.eye(2 ** n_atoms, dtype=complex)
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
