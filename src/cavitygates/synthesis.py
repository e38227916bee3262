"""Explicit gate sequences built from the fixed collective interaction.

Construction strategy, common to both registers: two pulses of the
collective evolution with a single-qubit pulse in between form a core
that carries the right entangling power (local invariants (0, 1), the
CNOT class); the one-qubit corrections that turn the core into an exact
CNOT are solved once per register, by `invariants.solve_local_corrections`
on the core as `compose` renders its steps (for three atoms, on its 4x4
factor on atoms 2 and 3), and stored as rotation layers.

  * Two atoms: the core U(pi/4) (R_y(pi) x 1) U(pi/4) uses the ladder
    form of the Hamiltonian; the middle pi pulse reverses atom 1 between
    the two evolutions, spin-echo fashion.  Total interaction phase
    pi/2.
  * Three atoms: a NOT pulse on the idle atom between two collective
    pulses of phi = 2 pi/3 cancels that atom's coupling entirely,
    leaving 1 x U23 with U23 = exp(-i pi/3 sigma_z x sigma_z) on the
    other two; two such blocks around R_y(phi_f) with
    tan(phi_f/2) = 1/sqrt(2) form the CNOT-class core.

The corrections make every composed sequence equal its target gate to
machine precision, global phase included (an explicit final step).
Each named sequence is a constant: `cnot2_sequence`, `cnot3_sequence` and
`toffoli_sequence` build it on first use and return that one immutable
GateSequence for every later call with the same valid arguments, the Toffolis
spliced from the cached CNOT blocks' steps; `spin_echo_u23` is built afresh,
as its k is unbounded.

Cores moved by e^{i eps H} keep continuous angles while the CNOT class's degenerate
eigenvalue pairs stay merged (tested to eps = 1e-11); beyond that the layers may jump,
but every sequence stays exact to about eps.  The edge is NotEquivalent: a pulse error
fails the spectra match ("could not be matched") before the invariants move past DEFAULT_TOL.
"""

from __future__ import annotations

from functools import lru_cache
from math import atan, pi, sqrt

import numpy as np

from .errors import InvalidBranch, NotFactorable, _check_control_target, _is_integer
from .evolution import HamiltonianForm
from .gates import _SMALL_HALF_ANGLE, cnot_gate, zyz_angles
from .invariants import factor_local, solve_local_corrections
from .linalg import DEFAULT_TOL, _as_stack
from .sequences import (
    CollectiveEvolution,
    GateSequence,
    GlobalPhase,
    LocalLayer,
    compose,
)

#: Middle-pulse angle of the three-atom CNOT core, tan(phi_f/2) = 1/sqrt(2).
CNOT3_MIDDLE_ANGLE = 2.0 * atan(1.0 / sqrt(2.0))

#: Global phases the CNOT corrections are solved for.
CNOT2_GLOBAL_PHASE = pi / 4
CNOT3_GLOBAL_PHASE = -pi / 4


def _euler_triples(qubit: int, u2: np.ndarray) -> tuple[tuple[int, str, float], ...]:
    """z-y-z rotation triples (application order) realizing u2 in SU(2), zero angles dropped."""
    alpha, beta, gamma = zyz_angles(u2)
    triples = []
    for axis, angle in (("z", gamma), ("y", beta), ("z", alpha)):
        if abs(angle) / 2 >= _SMALL_HALF_ANGLE:
            triples.append((qubit, axis, angle))
    return tuple(triples)


def _layer_from_local(u4) -> LocalLayer:
    """Rotation layer on qubits 1, 2 realizing u4 exactly: `factor_local` leaves a phase
    of 1 for every u4 in SU(2) x SU(2), -(a x b) too; any other phase is rejected."""
    phase, a, b = factor_local(u4)
    if abs(phase - 1.0) >= DEFAULT_TOL:
        raise NotFactorable(f"cannot absorb phase {phase} into rotation layers")
    return LocalLayer(_euler_triples(1, a) + _euler_triples(2, b))


def _correction_layers(core, phase_step: float):
    """Pre/post rotation layers and theta with e^{i theta} * post @ core @ pre = CNOT, exactly:
    theta is phase_step plus the solved pair's residual angle (the core's own global phase)."""
    pair = solve_local_corrections(core, np.exp(-1j * phase_step) * cnot_gate())
    pre, post = (_layer_from_local(o) for o in (pair.o, pair.o_prime))
    return pre, post, phase_step + float(np.angle(pair.phase))


_CNOT2_PULSE = CollectiveEvolution(pi / 4, HamiltonianForm.LADDER)
#: Two-atom CNOT core: U(pi/4), R_y(pi) on atom 1, U(pi/4).
_CNOT2_CORE = (_CNOT2_PULSE, LocalLayer(((1, "y", pi),)), _CNOT2_PULSE)


@lru_cache(maxsize=None)
def cnot2_sequence() -> GateSequence:
    """CNOT on two atoms (control 1, target 2) from two pi/4 pulses of
    the collective interaction.

    Steps: O_c, U(pi/4), R_y(pi) on atom 1, U(pi/4), O_c', global phase
    pi/4; the composed matrix equals the canonical CNOT exactly.  Total
    collective time pi/2 (units 1/eta): one pulse pair, which is the
    minimum for reaching the CNOT class with this interaction.
    """
    pre, post, theta = _corrections(2)
    return GateSequence(2, (pre, *_CNOT2_CORE, post, GlobalPhase(theta)), label="cnot2")


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
    if not _is_integer(branch) or branch not in (-1, 1):
        raise InvalidBranch(f"branch must be the integer +1 or -1, got {branch!r}")
    if not _is_integer(k) or k < 0:
        raise InvalidBranch(f"k must be a non-negative integer, got {k!r}")
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
    m = _as_stack(u)
    if m.shape != (8, 8):
        raise NotFactorable(f"expected an 8x8 unitary, got shape {m.shape}")
    upper, lower = m[:4, 4:], m[4:, :4]
    if np.linalg.norm(upper) > DEFAULT_TOL or np.linalg.norm(lower) > DEFAULT_TOL:
        raise NotFactorable("off-diagonal blocks are nonzero: atom 1 is entangled")
    top, bottom = m[:4, :4], m[4:, 4:]
    if np.linalg.norm(top - bottom) > DEFAULT_TOL:
        raise NotFactorable("diagonal blocks differ: not of the form 1 x V")
    return top.copy()


def _cnot3_core(control: int, target: int) -> tuple:
    """The CNOT-class core: echo (NOTs on the idle atom), R_y(phi_f) on the target, echo."""
    echo = _echo_steps(6 - control - target, +1)  # the atoms sum to 6
    return echo + (LocalLayer(((target, "y", CNOT3_MIDDLE_ANGLE),)),) + echo


@lru_cache(maxsize=None)
def _corrections(n: int) -> tuple[LocalLayer, LocalLayer, float]:
    """Pre/post layers on slots (1, 2) and theta of the n-atom CNOT core as `compose`
    renders it; the three-atom core is solved on atoms 2 (control), 3 (target)."""
    if n == 2:
        return _correction_layers(compose(GateSequence(2, _CNOT2_CORE)), CNOT2_GLOBAL_PHASE)
    core = extract_factor(compose(GateSequence(3, _cnot3_core(2, 3))))
    return _correction_layers(core, CNOT3_GLOBAL_PHASE)


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
    _check_control_target(control, target, 3)
    return _cnot3_sequence(control, target)


@lru_cache(maxsize=None, typed=True)  # typed: numpy qubits never land in an int entry
def _cnot3_sequence(control: int, target: int) -> GateSequence:
    """`cnot3_sequence` after its check: the core with the relabelled (2, 3) corrections."""
    pre, post, theta = _corrections(3)
    pre, post = (_relabel(layer, (control, target)) for layer in (pre, post))
    return GateSequence(
        n_atoms=3,
        steps=(pre,) + _cnot3_core(control, target) + (post, GlobalPhase(theta)),
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
    return _toffoli_sequence(bool(simplified))


@lru_cache(maxsize=None)
def _toffoli_sequence(simplified: bool) -> GateSequence:
    """`toffoli_sequence`, each CNOT block spliced from `cnot3_sequence`'s cached steps."""
    if simplified:
        a_pulse, a_dag = LocalLayer(((3, "y", pi / 4),)), LocalLayer(((3, "y", -pi / 4),))
        steps = (a_pulse, *cnot3_sequence(2, 3).steps, a_pulse, *cnot3_sequence(1, 3).steps,
                 a_dag, *cnot3_sequence(2, 3).steps, a_dag)
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
