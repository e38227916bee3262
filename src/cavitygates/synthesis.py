"""Explicit gate sequences built from the fixed collective interaction.

Construction strategy, common to both registers: two pulses of the
collective evolution with a single-qubit pulse in between form a core
that carries the right entangling power (local invariants (0, 1), the
CNOT class); the one-qubit corrections that turn the core into an exact
CNOT are then recovered with the local-invariants machinery of
`invariants.solve_local_corrections` and stored as rotation layers.

  * Two atoms: the core U(pi/4) (R_y(pi) x 1) U(pi/4) uses the ladder
    form of the Hamiltonian; the middle pi pulse reverses atom 1 between
    the two evolutions, spin-echo fashion.  Total interaction phase
    pi/2.
  * Three atoms: a NOT pulse on the idle atom between two collective
    pulses of phi = 2 pi/3 cancels that atom's coupling entirely,
    leaving 1 x U23 with U23 = exp(-i pi/3 sigma_z x sigma_z) on the
    other two; two such blocks around R_y(phi_f) with
    tan(phi_f/2) = 1/sqrt(2) form the CNOT-class core.

The derived corrections make every composed sequence equal its target
gate exactly (to machine precision), including the global phase carried
as an explicit final step.
"""

from __future__ import annotations

from functools import lru_cache
from math import atan, pi, sqrt

import numpy as np

from .errors import InvalidBranch, InvalidQubits, NotFactorable
from .evolution import HamiltonianForm
from .gates import cnot_gate, rotation, u23_gate, zyz_angles
from .invariants import factor_local, solve_local_corrections
from .linalg import DEFAULT_TOL, as_operator, kron
from .sequences import (
    CollectiveEvolution,
    GateSequence,
    GlobalPhase,
    LocalLayer,
    compose,
)

#: Middle-pulse angle of the three-atom CNOT core, tan(phi_f/2) = 1/sqrt(2).
CNOT3_MIDDLE_ANGLE = 2.0 * atan(1.0 / sqrt(2.0))

#: Global phases carried by the CNOT sequences.
CNOT2_GLOBAL_PHASE = pi / 4
CNOT3_GLOBAL_PHASE = -pi / 4


def _euler_triples(qubit: int, u2: np.ndarray) -> tuple[tuple[int, str, float], ...]:
    """z-y-z rotation triples (application order) realizing u2 in SU(2)."""
    alpha, beta, gamma = zyz_angles(u2)
    triples = []
    for axis, angle in (("z", gamma), ("y", beta), ("z", alpha)):
        if abs(angle) > 1e-12:
            triples.append((qubit, axis, angle))
    return tuple(triples)


def _layer_from_local(u4, qubits: tuple[int, int]) -> LocalLayer:
    """Rotation layer realizing a tensor-product 4x4 unitary exactly.

    The first tensor slot maps to qubits[0].  Only phases of +-1 can be
    absorbed into the rotation layers (SU(2) covers them); anything else
    means the input was not a plain product of special unitaries.
    """
    phase, a, b = factor_local(u4)
    if abs(phase - 1.0) < 1e-9:
        pass
    elif abs(phase + 1.0) < 1e-9:
        a = -a
    else:
        raise NotFactorable(f"cannot absorb phase {phase} into rotation layers")
    return LocalLayer(_euler_triples(qubits[0], a) + _euler_triples(qubits[1], b))


def _correction_layers(core, phase_step: float, qubits: tuple[int, int]):
    """Pre/post rotation layers with
    e^{i phase_step} * post @ core @ pre = CNOT, exactly."""
    want = np.exp(-1j * phase_step) * cnot_gate()
    pair = solve_local_corrections(core, want)
    o, o_prime = pair.o, pair.o_prime
    if abs(pair.phase + 1.0) < 1e-9:
        o = -o
    elif abs(pair.phase - 1.0) > 1e-9:
        raise NotFactorable(f"unexpected residual phase {pair.phase}")
    return _layer_from_local(o, qubits), _layer_from_local(o_prime, qubits)


def cnot2_sequence() -> GateSequence:
    """CNOT on two atoms (control 1, target 2) from two pi/4 pulses of
    the collective interaction.

    Steps: O_c, U(pi/4), R_y(pi) on atom 1, U(pi/4), O_c', global phase
    pi/4; the composed matrix equals the canonical CNOT exactly.  Total
    collective time pi/2 (units 1/eta): one pulse pair, which is the
    minimum for reaching the CNOT class with this interaction.
    """
    evo = CollectiveEvolution(pi / 4, HamiltonianForm.LADDER)
    middle = LocalLayer(((1, "y", pi),))
    core = compose(GateSequence(2, (evo, middle, evo), label="cnot2-core"))
    pre, post = _correction_layers(core, CNOT2_GLOBAL_PHASE, (1, 2))
    return GateSequence(
        n_atoms=2,
        steps=(pre, evo, middle, evo, post, GlobalPhase(CNOT2_GLOBAL_PHASE)),
        label="cnot2",
    )


def _echo_steps(idle_atom: int, branch: int, k: int = 0):
    """Spin-echo block at phi = (2 pi / 3)(3 k + branch): evolve, NOT the idle atom, repeat."""
    pulse = LocalLayer(((idle_atom, "x", pi),))
    evo = CollectiveEvolution(2.0 * pi / 3.0 * (3 * k + branch), HamiltonianForm.CASIMIR)
    return (evo, pulse, evo, pulse)


def spin_echo_u23(branch: int, k: int = 0) -> GateSequence:
    """Spin-echo sequence isolating atoms 2 and 3 of a three-atom register.

    A NOT pulse on atom 1 between two equal collective pulses cancels
    atom 1's coupling when sin(3 phi / 2) = 0, i.e. for
    phi = (2 pi / 3)(3 k + branch).  branch = +1 gives 1 x U23 with
    U23 = exp(-i pi/3 sigma_z x sigma_z); branch = -1 gives its adjoint
    (branch 0 would be the identity and is rejected).
    """
    if branch not in (-1, 1):
        raise InvalidBranch(f"branch must be +1 or -1, got {branch}")
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k}")
    return GateSequence(
        n_atoms=3,
        steps=_echo_steps(1, branch, k),
        label=f"spin_echo_u23(branch={branch:+d}, k={k})",
    )


def extract_factor(u) -> np.ndarray:
    """The 4x4 factor V of an 8x8 unitary of the form 1 x V.

    Raises:
        NotFactorable: if the off-diagonal 4x4 blocks are not zero or
            the two diagonal blocks disagree beyond DEFAULT_TOL.
    """
    m = as_operator(u)
    if m.shape != (8, 8):
        raise NotFactorable(f"expected an 8x8 unitary, got shape {m.shape}")
    upper, lower = m[:4, 4:], m[4:, :4]
    if np.linalg.norm(upper) > DEFAULT_TOL or np.linalg.norm(lower) > DEFAULT_TOL:
        raise NotFactorable("off-diagonal blocks are nonzero: atom 1 is entangled")
    top, bottom = m[:4, :4], m[4:, 4:]
    if np.linalg.norm(top - bottom) > DEFAULT_TOL:
        raise NotFactorable("diagonal blocks differ: not of the form 1 x V")
    return top.copy()


def _other_atom(control: int, target: int) -> int:
    atoms = {1, 2, 3}
    if control == target or not {control, target} <= atoms:
        raise InvalidQubits(
            f"control and target must be distinct atoms in 1..3, got "
            f"({control}, {target})"
        )
    return (atoms - {control, target}).pop()


@lru_cache(maxsize=None)
def _cnot3_corrections() -> tuple[LocalLayer, LocalLayer]:
    """Pre/post layers of the three-atom CNOT core U23 (1 x R_y(phi_f)) U23,
    on slots 1 (control) and 2 (target).  The core does not depend on the
    labelling, so it is solved once; the layers are immutable and shared."""
    u23 = u23_gate()
    core = u23 @ kron(np.eye(2), rotation("y", CNOT3_MIDDLE_ANGLE)) @ u23
    return _correction_layers(core, CNOT3_GLOBAL_PHASE, (1, 2))


def _relabel(layer: LocalLayer, qubits: tuple[int, int]) -> LocalLayer:
    """Move a layer on slots (1, 2) onto the given pair of atoms."""
    return LocalLayer(
        tuple((qubits[slot - 1], axis, angle) for slot, axis, angle in layer.rotations)
    )


def cnot3_sequence(control: int = 2, target: int = 3) -> GateSequence:
    """CNOT between two atoms of a three-atom register, third untouched.

    Two spin-echo blocks (branch +1, k = 0: the shortest implementation)
    sandwich R_y(phi_f) on the target atom; the derived one-qubit
    corrections and the global phase -pi/4 make the composition equal
    the embedded CNOT exactly.  Other control/target choices relabel the
    atoms, with the echo pulses moved to whichever atom sits idle.
    Total collective time 8 pi / 3 (units 1/eta).
    """
    idle = _other_atom(control, target)
    pre, post = (_relabel(layer, (control, target)) for layer in _cnot3_corrections())
    echo = _echo_steps(idle, +1)
    middle = LocalLayer(((target, "y", CNOT3_MIDDLE_ANGLE),))
    return GateSequence(
        n_atoms=3,
        steps=(pre,) + echo + (middle,) + echo + (post, GlobalPhase(CNOT3_GLOBAL_PHASE)),
        label=f"cnot3(control={control}, target={target})",
    )


def toffoli_sequence(simplified: bool = False) -> GateSequence:
    """Toffoli (controls 1, 2; target 3) from three-atom CNOT blocks.

    simplified=False: the standard six-CNOT network of Hadamard, T and
    T^dagger gates; composes to the canonical Toffoli exactly.
    Collective time 16 pi.

    simplified=True: the three-CNOT variant conjugating with
    A = R_y(pi/4) on the target; equals the Toffoli except for a sign
    flip of the single basis state |101>.  Collective time 8 pi, half
    the full gate.
    """
    if simplified:
        a_pulse = LocalLayer(((3, "y", pi / 4),))
        a_dag = LocalLayer(((3, "y", -pi / 4),))
        steps = (
            (a_pulse,)
            + cnot3_sequence(2, 3).steps
            + (a_pulse,)
            + cnot3_sequence(1, 3).steps
            + (a_dag,)
            + cnot3_sequence(2, 3).steps
            + (a_dag,)
        )
        return GateSequence(n_atoms=3, steps=steps, label="toffoli-simplified")

    # H = e^{i pi/2} R_y(pi/2) R_z(pi), T = e^{i pi/8} R_z(pi/4): phases summed in gate order
    hadamard = LocalLayer(((3, "z", pi), (3, "y", pi / 2)))
    t_dag = LocalLayer(((3, "z", -pi / 4),))
    steps = (
        hadamard,
        *cnot3_sequence(2, 3).steps,
        t_dag,
        *cnot3_sequence(1, 3).steps,
        LocalLayer(((3, "z", pi / 4),)),
        *cnot3_sequence(2, 3).steps,
        t_dag,
        *cnot3_sequence(1, 3).steps,
        LocalLayer(((2, "z", pi / 4), (3, "z", pi / 4))),  # T on atoms 2 and 3
        *cnot3_sequence(1, 2).steps,
        hadamard,
        LocalLayer(((1, "z", pi / 4), (2, "z", -pi / 4))),  # T on 1, T^dagger on 2
        *cnot3_sequence(1, 2).steps,
        GlobalPhase(pi / 2 - pi / 8 + pi / 8 - pi / 8 + pi / 4 + pi / 2),
    )
    return GateSequence(n_atoms=3, steps=steps, label="toffoli")
