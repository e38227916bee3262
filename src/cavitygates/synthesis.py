"""Explicit gate sequences built from the fixed collective interaction.

Construction strategy, common to both registers: two pulses of the
collective evolution with a single-qubit pulse in between form a core
that carries the right entangling power (local invariants (0, 1), the
CNOT class); fixed one-qubit layers before and after the core and a
global phase theta turn it into the exact CNOT.  Every angle is a closed
form in pi/4 and phi_f, derived below (|0> is the excited state, R_a(t) =
exp(-i t sigma_a / 2), layers written in application order).

  * Two atoms: the core C = U(pi/4) (R_y(pi) x 1) U(pi/4) uses the ladder
    form of the Hamiltonian, S+ S- = (2 + Z1 + Z2)/2 + (XX + YY)/2; the
    middle pi pulse reverses atom 1 between the two evolutions, spin-echo
    fashion.  Total interaction phase pi/2.  C keeps atom 1's axis
    a = (X + Y)/sqrt(2) local, C (a x 1) C^dagger = a' x 1 with
    a' = (Y - X)/sqrt(2), so it is a gate on atom 2 controlled by atom 1
    along a, and its two branches differ by a pi rotation: the CNOT class.
    Pre z(-pi/4), y(pi/2), z(pi/4) on atom 1 turns Z1 into a; post
    z(pi/4), y(pi/2), z(-pi/4) turns a' back into Z1; z(pi/4) before and
    z(3 pi/4), y(pi/2), z(pi/2) after on atom 2 make the branches
    e^{-i pi/4} 1 and e^{-i pi/4} X, so theta = pi/4.
  * Three atoms: a NOT pulse on the idle atom between two collective
    pulses of phi = 2 pi/3 cancels that atom's coupling entirely,
    leaving 1 x U23 with U23 = exp(-i pi/3 sigma_z x sigma_z) on the
    other two; two such blocks around R_y(phi_f) on the target, with
    tan(phi_f/2) = 1/sqrt(2), form the core.  U23 is R_z(+-2 pi/3) on the
    target for the control in |0>, |1>, so the core is controlled
    W_+- = R_z(+-2 pi/3) R_y(phi_f) R_z(+-2 pi/3); cos phi_f = 1/3 makes
    tr(W_+^dagger W_-) = 0, a pi rotation: the CNOT class.  Pre
    y(pi - phi_f/2) and post z(-pi/2), y(pi/2), z(-(3 pi/2 - phi_f/2)) on
    the target give the branches 1 and i X; z(-pi/2) on the control turns
    both into e^{i pi/4}, so theta = -pi/4.

The composed sequences equal their target gates entrywise to rounding,
global phase included (an explicit final step); tests re-derive the layers
with `invariants.solve_local_corrections` on each core as `compose`
renders it.  One rule holds for every named sequence: it is built once
per valid argument, on first use, and every later call with that argument
returns the same immutable GateSequence; the Toffolis are spliced from the
cached CNOT blocks' steps.
"""

from __future__ import annotations

from functools import lru_cache
from math import atan, pi, sqrt

from .errors import InvalidBranch, _check_control_target, _is_integer
from .evolution import HamiltonianForm
from .sequences import CollectiveEvolution, GateSequence, GlobalPhase, LocalLayer

#: Middle-pulse angle of the three-atom CNOT core, tan(phi_f/2) = 1/sqrt(2).
CNOT3_MIDDLE_ANGLE = 2.0 * atan(1.0 / sqrt(2.0))

#: Global phases theta of the CNOT sequences' final steps.
CNOT2_GLOBAL_PHASE = pi / 4
CNOT3_GLOBAL_PHASE = -pi / 4

_CNOT2_PULSE = CollectiveEvolution(pi / 4, HamiltonianForm.LADDER)
#: Two-atom CNOT core: U(pi/4), R_y(pi) on atom 1, U(pi/4).
_CNOT2_CORE = (_CNOT2_PULSE, LocalLayer(((1, "y", pi),)), _CNOT2_PULSE)
#: Its pre and post layers: e^{i pi/4} post @ core @ pre = CNOT.
_CNOT2_PRE = LocalLayer(((1, "z", -pi / 4), (1, "y", pi / 2), (1, "z", pi / 4), (2, "z", pi / 4)))
_CNOT2_POST = LocalLayer(((1, "z", pi / 4), (1, "y", pi / 2), (1, "z", -pi / 4),
                          (2, "z", 3 * pi / 4), (2, "y", pi / 2), (2, "z", pi / 2)))


@lru_cache(maxsize=None)
def cnot2_sequence() -> GateSequence:
    """CNOT on two atoms (control 1, target 2) from two pi/4 pulses of
    the collective interaction.

    Steps: O_c, U(pi/4), R_y(pi) on atom 1, U(pi/4), O_c', global phase
    pi/4; the composed matrix equals the canonical CNOT exactly.  Total
    collective time pi/2 (units 1/eta): one pulse pair, which is the
    minimum for reaching the CNOT class with this interaction.
    """
    steps = (_CNOT2_PRE, *_CNOT2_CORE, _CNOT2_POST, GlobalPhase(CNOT2_GLOBAL_PHASE))
    return GateSequence(2, steps, label="cnot2")


def _echo_steps(idle_atom: int, branch: int):
    """Spin-echo block at phi = branch 2 pi / 3: evolve, NOT the idle atom, repeat."""
    pulse = LocalLayer(((idle_atom, "x", pi),))
    evo = CollectiveEvolution(2.0 * pi / 3.0 * branch, HamiltonianForm.CASIMIR)
    return (evo, pulse, evo, pulse)


def spin_echo_u23(branch: int) -> GateSequence:
    """Spin-echo sequence isolating atoms 2 and 3 of a three-atom register.

    A NOT pulse on atom 1 between two equal collective pulses cancels
    atom 1's coupling when sin(3 phi / 2) = 0, i.e. for
    phi = (2 pi / 3)(3 k + branch); this echo uses the shortest window,
    k = 0.  branch = +1 gives 1 x U23 with
    U23 = exp(-i pi/3 sigma_z x sigma_z); branch = -1 gives its adjoint
    (branch 0 would be the identity and is rejected).
    """
    if not _is_integer(branch) or branch not in (-1, 1):
        raise InvalidBranch(f"branch must be the integer +1 or -1, got {branch!r}")
    return _spin_echo_u23(int(branch))


@lru_cache(maxsize=None)
def _spin_echo_u23(branch: int) -> GateSequence:
    """`spin_echo_u23` after its check; the label's k=0 names the window it uses."""
    return GateSequence(3, _echo_steps(1, branch), label=f"spin_echo_u23(branch={branch:+d}, k=0)")


def _cnot3_core(control: int, target: int) -> tuple:
    """The CNOT-class core: echo (NOTs on the idle atom), R_y(phi_f) on the target, echo."""
    echo = _echo_steps(6 - control - target, +1)  # the atoms sum to 6
    return echo + (LocalLayer(((target, "y", CNOT3_MIDDLE_ANGLE),)),) + echo


#: The three-atom core's pre and post layers on slots (1, 2) = (control, target):
#: e^{-i pi/4} post @ core @ pre = CNOT.
_CNOT3_PRE = LocalLayer(((2, "y", pi - CNOT3_MIDDLE_ANGLE / 2),))
_CNOT3_POST = LocalLayer(((1, "z", -pi / 2), (2, "z", -pi / 2), (2, "y", pi / 2),
                          (2, "z", -(3 * pi / 2 - CNOT3_MIDDLE_ANGLE / 2))))


def _relabel(layer: LocalLayer, qubits: tuple[int, int]) -> LocalLayer:
    """Move a layer on slots (1, 2) onto the given pair of atoms."""
    return LocalLayer(
        tuple((qubits[slot - 1], axis, angle) for slot, axis, angle in layer.rotations)
    )


def cnot3_sequence(control: int = 2, target: int = 3) -> GateSequence:
    """CNOT between two atoms of a three-atom register, third untouched.

    Two spin-echo blocks (branch +1, phi = 2 pi/3: the shortest window)
    sandwich R_y(phi_f) on the target atom; the closed-form one-qubit
    corrections and the global phase -pi/4 make the composition equal
    the embedded CNOT exactly.  Other control/target choices relabel the
    atoms, with the echo pulses moved to whichever atom sits idle.
    Total collective time 8 pi / 3 (units 1/eta).
    """
    _check_control_target(control, target, 3)
    return _cnot3_sequence(control, target)


@lru_cache(maxsize=None, typed=True)  # typed: numpy qubits never land in an int entry
def _cnot3_sequence(control: int, target: int) -> GateSequence:
    """`cnot3_sequence` after its check: the core with the relabelled corrections."""
    pre, post = (_relabel(layer, (control, target)) for layer in (_CNOT3_PRE, _CNOT3_POST))
    return GateSequence(
        n_atoms=3,
        steps=(pre,) + _cnot3_core(control, target) + (post, GlobalPhase(CNOT3_GLOBAL_PHASE)),
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
