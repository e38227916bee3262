"""The synthesized gates against the Tavis-Cummings model they approximate.

n atoms and one cavity mode, cut at CUT photons, in the frame rotating at the
atomic frequency, with no loss (kappa = 0):

    H / Delta = -a^dagger a + (g / Delta) (a S_+ + a^dagger S_-),

so sigma_+ = |0><1| absorbs a photon: |0> is the excited atomic state.  In the
dispersive limit g / Delta -> 0 this gives the ladder form
eta (S_+ S_- + 2 n S_z), eta = g^2 / Delta, on the photon-n block, which is the
Casimir form plus (2 n + 1) S_z.  A pulse phi of either form runs this H for the
time t = phi / eta; rotations and the global phase act instantly, and with the
field in Fock state n every pulse is followed by
`compensation_layer(n_atoms, form, n, phi)`, the per-qubit R_z(-2 n phi)
(ladder) or R_z(-(2 n + 1) phi) (Casimir).  The error of the adiabatic
elimination is second order in g / Delta.
"""

import numpy as np
import pytest

from cavitygates.evolution import VALIDITY_WARN_THRESHOLD, compensation_layer
from cavitygates.gates import cnot_gate, controlled_not, toffoli_gate
from cavitygates.linalg import phase_distance
from cavitygates.sequences import CollectiveEvolution, step_unitary
from cavitygates.spin import collective_op
from cavitygates.synthesis import cnot2_sequence, cnot3_sequence, toffoli_sequence

CUT = 6
_A = np.diag(np.sqrt(np.arange(1.0, CUT + 1)), 1)  # annihilation operator on Fock 0..CUT
_FIELD = np.eye(CUT + 1)


def _photon_block(seq, ratio, n, absorb="+"):
    """The atoms' block, field Fock n in and out, of `seq` run on the
    Tavis-Cummings model at g / Delta = ratio; absorb names the collective ladder
    operator paired with a (the other one goes with a^dagger)."""
    atoms, emit = seq.n_atoms, "-" if absorb == "+" else "+"
    h = -np.kron(np.eye(2 ** atoms), _A.T @ _A) + ratio * (
        np.kron(collective_op(absorb, atoms), _A) + np.kron(collective_op(emit, atoms), _A.T))
    w, v = np.linalg.eigh(h)
    u = np.eye(2 ** atoms * (CUT + 1), dtype=complex)
    for step in seq.steps:
        if isinstance(step, CollectiveEvolution):
            # Delta t = phi / ratio^2
            pulse = (v * np.exp(-1j * w * step.phi / ratio ** 2)) @ v.conj().T
            u = np.kron(compensation_layer(atoms, step.form, n, step.phi), _FIELD) @ pulse @ u
        else:
            u = np.kron(step_unitary(step, atoms), _FIELD) @ u
    return u[n::CUT + 1, n::CUT + 1]


@pytest.mark.parametrize("n", [0, 1])
def test_the_cnot_error_falls_as_the_square_of_g_over_delta(n):
    coarse, fine = (
        phase_distance(_photon_block(cnot2_sequence(), ratio, n), cnot_gate()) for ratio in (1e-2, 1e-3))
    assert coarse < 2e-3
    assert 50 < coarse / fine < 200


#: (sequence, target, Fock state): the ladder pulses of cnot2 in a hotter field,
#: and the Casimir pulses of the three-atom gates
CASES = {
    "cnot2-fock3": (cnot2_sequence, cnot_gate, 3),
    "cnot3-vacuum": (lambda: cnot3_sequence(2, 3), lambda: controlled_not(3, 2, 3), 0),
    "cnot3-fock1": (lambda: cnot3_sequence(2, 3), lambda: controlled_not(3, 2, 3), 1),
    "toffoli-vacuum": (lambda: toffoli_sequence(False), toffoli_gate, 0),
    # the simplified Toffoli flips the sign of |101>
    "simplified-toffoli-vacuum": (
        lambda: toffoli_sequence(True), lambda: np.diag([1, 1, 1, 1, 1, -1, 1, 1]) @ toffoli_gate(), 0),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_every_gate_error_falls_as_the_square_of_g_over_delta(case):
    sequence, target, n = case
    coarse, fine = (phase_distance(_photon_block(sequence(), ratio, n), target()) for ratio in (1e-2, 1e-3))
    assert 50 < coarse / fine < 200


@pytest.mark.parametrize("n", [0, 1])
def test_the_other_labelling_does_not_converge(n):
    # a S_- + a^dagger S_+: |0> would be the ground state, and the ladder form's
    # S_+ S_- its S_- S_+ instead
    for ratio in (1e-2, 1e-3):
        assert phase_distance(_photon_block(cnot2_sequence(), ratio, n, absorb="-"), cnot_gate()) > 2.5


def test_the_error_at_the_validity_threshold_is_the_stated_one():
    # validity ratio g sqrt(2) / Delta at the warning threshold: the VALIDITY_WARN_THRESHOLD
    # comment and the README state 1 - F = 1.9e-2 and a phase distance of 3.1e-2 there
    block = _photon_block(cnot2_sequence(), VALIDITY_WARN_THRESHOLD / np.sqrt(2), 0)
    infidelity = 1 - abs(np.trace(cnot_gate().conj().T @ block)) ** 2 / 16
    assert 1.9e-2 / 2 < infidelity < 1.9e-2 * 2
    assert 3.1e-2 / 2 < phase_distance(block, cnot_gate()) < 3.1e-2 * 2
