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
so the first step acts first.  It renders the steps as stacks, every
collective pulse in one `expm_spectral` call, every rotation in one
`_rotations` call and every layer in one `kron`, then folds them into the
product in step order, one product at a time: bit for bit the fold of
`step_unitary`.

Each step checks its own fields when constructed: phi, angles and theta
finite, form a HamiltonianForm, axes x/y/z, qubits integers >= 1.  A
GateSequence checks its register: n_atoms in 1..3, qubits <= n_atoms,
known step types.  compose() adds only that nbar is finite and >= 0;
`step_unitary` and `local_layer_unitary` check their register as GateSequence does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from typing import Union

import numpy as np

from .errors import _check_finite, _check_non_negative, _check_qubit
from .evolution import HamiltonianForm, _check_form, _pulses
from .gates import _AXES, _check_rotation, _rotations
from .linalg import kron
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


def _layer_unitaries(layers, n_atoms: int) -> np.ndarray:
    """Stack of the layers' unitaries: one `_rotations` call, one kron."""
    factors = np.empty((len(layers), n_atoms, 2, 2), dtype=complex)
    factors[...] = np.eye(2)
    placed, seen = [], {}
    for i, layer in enumerate(layers):
        for qubit, axis, angle in layer.rotations:
            # depth: the number of earlier rotations of this qubit in this layer
            seen[i, qubit] = depth = seen.get((i, qubit), -1) + 1
            placed.append((depth, i, qubit - 1, _AXES.index(axis), angle))
    if placed:
        depth, rows, qubits, axes, angles = map(np.array, zip(*placed))
        singles = _rotations(axes, angles)
        for k in range(depth.max() + 1):  # each acts after (left of) the shallower
            at = depth == k
            slot = rows[at], qubits[at]
            factors[slot] = singles[at] if k == 0 else singles[at] @ factors[slot]
    return kron(*factors.swapaxes(0, 1))


def _step_unitaries(seq: GateSequence) -> list[np.ndarray]:
    """Each step's unitary in order, pulses and layers rendered as stacks."""
    n, steps = seq.n_atoms, seq.steps
    pulses = [s for s in steps if isinstance(s, CollectiveEvolution)]
    layers = [s for s in steps if isinstance(s, LocalLayer)]
    if pulses:
        pulses = _pulses(n, [p.form for p in pulses], np.array([p.phi for p in pulses]))
    # from here on, iterators over the rendered unitaries
    pulses, layers = iter(pulses), iter(_layer_unitaries(layers, n) if layers else ())
    return [
        next(pulses) if isinstance(s, CollectiveEvolution)
        else next(layers) if isinstance(s, LocalLayer)
        else np.exp(1j * s.theta) * np.eye(2 ** n, dtype=complex)
        for s in steps
    ]


def local_layer_unitary(layer: LocalLayer, n_atoms: int) -> np.ndarray:
    """Dense unitary of a rotation layer on an n-atom register, as a fresh
    array; IndexOutOfRange unless n_atoms is in 1..3 and holds every qubit."""
    return _layer_unitaries([layer], GateSequence(n_atoms, (layer,)).n_atoms)[0]


def step_unitary(step: SequenceStep, n_atoms: int) -> np.ndarray:
    """Dense unitary of one step, collective steps compensated; IndexOutOfRange
    unless n_atoms is in 1..3 and holds the step's qubits."""
    return _step_unitaries(GateSequence(n_atoms, (step,)))[0]


def compose(seq: GateSequence, nbar: float = 0.0) -> np.ndarray:
    """Multiply the step unitaries, first listed step acting first.

    Collective steps are compensated, so the result does not depend on
    nbar, which is only checked to be finite and >= 0.
    """
    _check_non_negative("nbar", nbar)
    out = np.eye(2 ** seq.n_atoms, dtype=complex)
    for u in _step_unitaries(seq):
        out = u @ out
    return out


def collective_time(seq: GateSequence) -> float:
    """Total collective-interaction phase, sum of |phi| (units of 1/eta).

    Local layers and global phases cost nothing under the fast-1-qubit
    assumption.
    """
    return fsum(
        abs(step.phi) for step in seq.steps if isinstance(step, CollectiveEvolution)
    )
