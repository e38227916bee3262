import numpy as np
import pytest
from numpy.testing import assert_allclose

from cavitygates.errors import InvalidBranch, InvalidQubits, NotFactorable
from cavitygates.evolution import HamiltonianForm
from cavitygates.gates import cnot_gate, controlled_not, toffoli_gate, u23_gate
from cavitygates.invariants import local_invariants
from cavitygates.linalg import is_unitary, kron, phase_distance
from cavitygates.sequences import (
    CollectiveEvolution,
    GateSequence,
    GlobalPhase,
    LocalLayer,
    collective_time,
    compose,
)
from cavitygates import synthesis
from cavitygates.synthesis import (
    cnot2_sequence,
    cnot3_sequence,
    extract_factor,
    spin_echo_u23,
    toffoli_sequence,
)


# -- two atoms -----------------------------------------------------------

def test_cnot2_composes_to_exact_cnot():
    u = compose(cnot2_sequence())
    assert phase_distance(u, cnot_gate()) < 1e-9
    # with the global-phase step included the equality is entrywise
    assert np.abs(u - cnot_gate()).max() < 1e-9


def test_cnot2_structure():
    seq = cnot2_sequence()
    assert seq.n_atoms == 2
    kinds = [type(s) for s in seq.steps]
    assert kinds == [
        LocalLayer,
        CollectiveEvolution,
        LocalLayer,
        CollectiveEvolution,
        LocalLayer,
        GlobalPhase,
    ]
    evos = [s for s in seq.steps if isinstance(s, CollectiveEvolution)]
    assert all(e.form is HamiltonianForm.LADDER for e in evos)
    assert all(e.phi == pytest.approx(np.pi / 4) for e in evos)
    assert seq.steps[-1].theta == pytest.approx(np.pi / 4)
    # middle pulse is the pi rotation on atom 1
    assert seq.steps[2].rotations == ((1, "y", np.pi),)


def test_cnot2_core_is_cnot_class():
    seq = cnot2_sequence()
    core = compose(GateSequence(2, seq.steps[1:4]))
    g1, g2 = local_invariants(core)
    assert abs(g1) < 1e-9 and abs(g2 - 1) < 1e-9


def test_cnot2_collective_time():
    assert collective_time(cnot2_sequence()) == 2 * (np.pi / 4)


# -- spin echo -----------------------------------------------------------

def test_spin_echo_factorizes():
    u = compose(spin_echo_u23(+1, 0))
    assert is_unitary(u)
    assert np.linalg.norm(u[:4, 4:]) < 1e-9
    assert np.linalg.norm(u[4:, :4]) < 1e-9
    assert phase_distance(u, kron(np.eye(2), u23_gate())) < 1e-9


def test_spin_echo_extracted_factor():
    factor = extract_factor(compose(spin_echo_u23(+1, 0)))
    assert np.abs(factor - u23_gate()).max() < 1e-9
    g1, g2 = local_invariants(factor)
    assert abs(g1 - 0.25) < 1e-9 and abs(g2 - 1.5) < 1e-9


def test_spin_echo_adjoint_branch():
    minus = compose(spin_echo_u23(-1, 0))
    plus = compose(spin_echo_u23(+1, 0))
    assert phase_distance(minus, plus.conj().T) < 1e-9


def test_spin_echo_longer_timing_window():
    # k = 1 uses phi = 2 pi/3 * 4 and reproduces the same gate
    assert phase_distance(
        compose(spin_echo_u23(+1, 1)), compose(spin_echo_u23(+1, 0))
    ) < 1e-9


def test_spin_echo_identity_branch_math():
    # multiples of 2 pi correspond to the trivial solution branch: the
    # echo composes to the identity up to global phase
    steps = GateSequence(
        3,
        (
            CollectiveEvolution(2 * np.pi, HamiltonianForm.CASIMIR),
            LocalLayer(((1, "x", np.pi),)),
            CollectiveEvolution(2 * np.pi, HamiltonianForm.CASIMIR),
            LocalLayer(((1, "x", np.pi),)),
        ),
    )
    assert phase_distance(compose(steps), np.eye(8)) < 1e-9


def test_spin_echo_rejects_bad_branch():
    for branch in (0, 2, -3):
        with pytest.raises(InvalidBranch):
            spin_echo_u23(branch)
    with pytest.raises(ValueError):
        spin_echo_u23(+1, k=-1)


def test_extract_factor_reference_cases():
    assert_allclose(extract_factor(kron(np.eye(2), cnot_gate())), cnot_gate())
    assert_allclose(extract_factor(np.eye(8)), np.eye(4))
    with pytest.raises(NotFactorable):
        extract_factor(controlled_not(3, 1, 3))  # atom 1 entangled
    with pytest.raises(NotFactorable):
        extract_factor(kron(np.diag([1, 1j]), cnot_gate()))  # blocks differ
    with pytest.raises(NotFactorable):
        extract_factor(np.eye(4))


# -- three atoms ---------------------------------------------------------

def test_cnot3_default_labelling():
    u = compose(cnot3_sequence(2, 3))
    assert phase_distance(u, kron(np.eye(2), cnot_gate())) < 1e-8
    # global phase step makes it exact entrywise too
    assert np.abs(u - kron(np.eye(2), cnot_gate())).max() < 1e-8


@pytest.mark.parametrize(
    "control,target", [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
)
def test_cnot3_all_labellings(control, target):
    u = compose(cnot3_sequence(control, target))
    ref = controlled_not(3, control, target)
    assert phase_distance(u, ref) < 1e-9


def test_cnot3_echo_pulses_hit_idle_atom():
    seq = cnot3_sequence(1, 3)
    pulses = [
        s.rotations[0][0]
        for s in seq.steps
        if isinstance(s, LocalLayer) and s.rotations and s.rotations[0][2] == np.pi
    ]
    assert 2 in pulses  # atom 2 is idle for control 1, target 3


def test_cnot3_collective_time():
    for control, target in ((2, 3), (3, 1)):
        assert collective_time(cnot3_sequence(control, target)) == 4 * (2 * np.pi / 3)


def test_cnot3_rejects_bad_qubits():
    with pytest.raises(InvalidQubits):
        cnot3_sequence(2, 2)
    with pytest.raises(InvalidQubits):
        cnot3_sequence(0, 3)
    with pytest.raises(InvalidQubits):
        cnot3_sequence(1, 4)


# -- Toffoli -------------------------------------------------------------

def test_full_toffoli():
    u = compose(toffoli_sequence(simplified=False))
    assert phase_distance(u, toffoli_gate()) < 1e-8
    assert np.abs(u - toffoli_gate()).max() < 1e-8


def test_simplified_toffoli_magnitudes_and_single_phase():
    u = compose(toffoli_sequence(simplified=True))
    target = toffoli_gate()
    assert np.abs(np.abs(u) - np.abs(target)).max() < 1e-9
    diffs = np.argwhere(np.abs(u - target) > 1e-6)
    assert len(diffs) == 1
    row, col = diffs[0]
    assert row == col  # a conditional phase: diagonal entry
    assert u[row, col] == pytest.approx(-target[row, col], abs=1e-9)


def test_toffoli_collective_times():
    unit = 2 * np.pi / 3
    assert collective_time(toffoli_sequence(False)) == 24 * unit
    assert collective_time(toffoli_sequence(True)) == 12 * unit


def test_every_sequence_composes_to_a_unitary():
    for seq in (
        cnot2_sequence(),
        spin_echo_u23(+1),
        cnot3_sequence(3, 2),
        toffoli_sequence(False),
        toffoli_sequence(True),
    ):
        assert is_unitary(compose(seq))


def test_sequences_thermally_robust():
    for seq in (cnot2_sequence(), cnot3_sequence(2, 3), toffoli_sequence(True)):
        cold = compose(seq, nbar=0.0)
        hot = compose(seq, nbar=3.7)
        assert phase_distance(hot, cold) < 1e-9


def test_builders_are_deterministic():
    # derived correction layers must come out identical on every call
    a, b = cnot2_sequence(), cnot2_sequence()
    assert a == b
    assert cnot3_sequence(3, 1) == cnot3_sequence(3, 1)


def test_cnot3_corrections_are_solved_once(monkeypatch):
    calls = []
    solve = synthesis.solve_local_corrections

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(synthesis, "solve_local_corrections", counting)
    synthesis._cnot3_corrections.cache_clear()
    full = compose(toffoli_sequence(False))
    for control, target in ((1, 2), (2, 1), (3, 1)):
        cnot3_sequence(control, target)
    assert len(calls) == 1
    assert phase_distance(full, toffoli_gate()) < 1e-8


def test_cnot3_labellings_relabel_one_correction_pair():
    # every labelling carries the same angles, moved onto its own atoms
    def angles(seq):
        return [[(axis, angle) for _, axis, angle in seq.steps[i].rotations] for i in (0, -2)]

    reference = angles(cnot3_sequence(2, 3))
    for control, target in ((1, 2), (1, 3), (2, 1), (3, 1), (3, 2)):
        seq = cnot3_sequence(control, target)
        assert angles(seq) == reference
        for i in (0, -2):
            assert {q for q, _, _ in seq.steps[i].rotations} <= {control, target}
