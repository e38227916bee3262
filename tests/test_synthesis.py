import numpy as np
import pytest

from cavitygates.errors import InvalidBranch, InvalidQubits, NotEquivalent, NotFactorable
from cavitygates.evolution import HamiltonianForm
from cavitygates.gates import cnot_gate, controlled_not, toffoli_gate, u23_gate
from cavitygates.invariants import LocalCorrectionPair, local_invariants
from cavitygates.linalg import DEFAULT_TOL, is_unitary, kron, phase_distance
from cavitygates.sequences import (
    CollectiveEvolution,
    GateSequence,
    GlobalPhase,
    LocalLayer,
    collective_time,
    compose,
    local_layer_unitary,
)
from cavitygates import gates, invariants, synthesis
from cavitygates.synthesis import (
    cnot2_sequence,
    cnot3_sequence,
    spin_echo_u23,
    toffoli_sequence,
)

import conftest
from conftest import _correction_layers, cnot2_core, cnot3_core, perturbed

CORES = pytest.mark.parametrize(
    "core, phase_step",
    [(cnot2_core, synthesis.CNOT2_GLOBAL_PHASE), (cnot3_core, synthesis.CNOT3_GLOBAL_PHASE)],
    ids=["cnot2", "cnot3"],
)


# -- two atoms -----------------------------------------------------------

def test_cnot2_composes_to_exact_cnot():
    u = compose(cnot2_sequence())
    assert phase_distance(u, cnot_gate()) < 1e-9
    # with the global-phase step included the equality is entrywise
    assert np.abs(u - cnot_gate()).max() < 1e-9


def _solver_returning(transform):
    solve = conftest.solve_local_corrections
    return lambda core, want: transform(solve(core, want))


def test_a_negated_pre_correction_factors_with_phase_one(monkeypatch):
    # (-O, O', -phase) solves the same equation as (O, O', phase): -O is in
    # SU(2) x SU(2) too, so its layer carries the sign and theta the -1
    flipped = _solver_returning(lambda p: LocalCorrectionPair(-p.o, p.o_prime, -p.phase))
    monkeypatch.setattr(conftest, "solve_local_corrections", flipped)
    gate = _composed(cnot2_core(), synthesis.CNOT2_GLOBAL_PHASE)
    assert np.abs(gate - cnot_gate()).max() < 1e-9


def test_correction_rejects_a_residual_phase_other_than_sign(monkeypatch):
    # (i O, O', -i phase) is a valid pair too, but SU(2) layers cannot carry i
    turned = _solver_returning(lambda p: LocalCorrectionPair(1j * p.o, p.o_prime, -1j * p.phase))
    monkeypatch.setattr(conftest, "solve_local_corrections", turned)
    with pytest.raises(NotFactorable, match="cannot absorb phase"):
        _correction_layers(cnot2_core(), synthesis.CNOT2_GLOBAL_PHASE)


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
    u = compose(spin_echo_u23(+1))
    assert is_unitary(u)
    assert np.linalg.norm(u[:4, 4:]) < 1e-9
    assert np.linalg.norm(u[4:, :4]) < 1e-9
    assert phase_distance(u, kron(np.eye(2), u23_gate())) < 1e-9


def test_spin_echo_extracted_factor():
    factor = compose(spin_echo_u23(+1))[:4, :4]
    assert np.abs(factor - u23_gate()).max() < 1e-9
    g1, g2 = local_invariants(factor)
    assert abs(g1 - 0.25) < 1e-9 and abs(g2 - 1.5) < 1e-9


def test_spin_echo_adjoint_branch():
    minus = compose(spin_echo_u23(-1))
    plus = compose(spin_echo_u23(+1))
    assert phase_distance(minus, plus.conj().T) < 1e-9


def test_spin_echo_longer_timing_window():
    # the next window, phi = 8 pi/3 = 2 pi/3 + 2 pi, reproduces the same gate up to phase
    steps = GateSequence(
        3,
        (
            CollectiveEvolution(8 * np.pi / 3, HamiltonianForm.CASIMIR),
            LocalLayer(((1, "x", np.pi),)),
            CollectiveEvolution(8 * np.pi / 3, HamiltonianForm.CASIMIR),
            LocalLayer(((1, "x", np.pi),)),
        ),
    )
    assert phase_distance(compose(steps), compose(spin_echo_u23(+1))) < 1e-9


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
    # bool is an int subclass: True would otherwise pass as branch +1
    for branch in (0, 2, -3, True):
        with pytest.raises(InvalidBranch):
            spin_echo_u23(branch)


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
    # the correction layers come out identical on every call
    a, b = cnot2_sequence(), cnot2_sequence()
    assert a == b
    assert cnot3_sequence(3, 1) == cnot3_sequence(3, 1)


def test_named_sequences_are_built_once():
    # each named sequence is a constant: every call with the same arguments returns one object
    assert cnot2_sequence() is cnot2_sequence()
    assert spin_echo_u23(+1) is spin_echo_u23(+1)
    assert spin_echo_u23(np.int64(-1)) is spin_echo_u23(-1)  # keyed on int(branch)
    assert cnot3_sequence(3, 1) is cnot3_sequence(3, 1)
    assert cnot3_sequence() is cnot3_sequence(2, 3) is cnot3_sequence(target=3, control=2)
    for simplified in (False, True):
        assert toffoli_sequence(simplified) is toffoli_sequence(simplified=simplified)


def test_a_cached_cnot3_still_rejects_bad_qubits(fresh_synthesis):
    numpy_built = cnot3_sequence(np.int64(1), np.int64(2))
    assert cnot3_sequence(1, 2) == numpy_built
    # numpy qubits get an entry of their own: the int entry carries Python ints
    layers = [s for s in cnot3_sequence(1, 2).steps if isinstance(s, LocalLayer)]
    assert {type(q) for layer in layers for q, _, _ in layer.rotations} == {int}
    for control, target in ((True, 2), (1.0, 2), (2, 2), ([1], 2)):
        with pytest.raises(InvalidQubits):
            cnot3_sequence(control, target)


def test_toffoli_takes_the_truth_of_simplified():
    assert toffoli_sequence(np.bool_(True)) is toffoli_sequence(True)
    assert toffoli_sequence(0) is toffoli_sequence(False)


@pytest.mark.parametrize(
    "simplified, blocks",
    [(False, ((2, 3), (1, 3), (2, 3), (1, 3), (1, 2), (1, 2))), (True, ((2, 3), (1, 3), (2, 3)))],
    ids=["toffoli", "simplified"],
)
def test_toffoli_cnot_blocks_are_the_cached_cnot3_steps(simplified, blocks):
    steps, found = toffoli_sequence(simplified).steps, []
    width = len(cnot3_sequence().steps)
    for i in range(len(steps) - width + 1):
        for pair in {(1, 2), (1, 3), (2, 3)}:
            if all(a is b for a, b in zip(steps[i:i + width], cnot3_sequence(*pair).steps)):
                found.append(pair)
    assert found == list(blocks)
    # every collective pulse of the Toffoli sits in one of those blocks
    pulses = sum(isinstance(step, CollectiveEvolution) for step in steps)
    assert pulses == 4 * len(blocks)


def test_no_named_builder_calls_the_solver(monkeypatch, fresh_synthesis):
    # the corrections are constants: building every named sequence from empty
    # caches reaches neither the solver nor the factoring that re-derives them
    def refuse(*args, **kwargs):
        raise AssertionError("a named builder called the solver")

    for name in ("solve_local_corrections", "factor_local", "local_invariants"):
        monkeypatch.setattr(invariants, name, refuse)
    monkeypatch.setattr(gates, "zyz_angles", refuse)
    assert np.abs(compose(cnot2_sequence()) - cnot_gate()).max() < 1e-15
    for control, target in ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)):
        u = compose(cnot3_sequence(control, target))
        assert np.abs(u - controlled_not(3, control, target)).max() < 1e-14
    assert np.abs(compose(toffoli_sequence(False)) - toffoli_gate()).max() < 1e-13
    flipped = toffoli_gate() * np.where(np.arange(8) == 0b101, -1, 1)  # the sign of |101>
    assert np.abs(compose(toffoli_sequence(True)) - flipped).max() < 1e-13
    assert not hasattr(synthesis, "solve_local_corrections")


@pytest.mark.parametrize(
    "n, phase_step, pre, post",
    [(2, synthesis.CNOT2_GLOBAL_PHASE, synthesis._CNOT2_PRE, synthesis._CNOT2_POST),
     (3, synthesis.CNOT3_GLOBAL_PHASE, synthesis._CNOT3_PRE, synthesis._CNOT3_POST)],
    ids=["cnot2", "cnot3"],
)
def test_the_solver_reproduces_the_closed_form_corrections(n, phase_step, pre, post):
    # on the core as compose renders it (for three atoms its factor on atoms 2, 3),
    # the solver and the factoring re-derive the constant layers and theta
    if n == 2:
        core = compose(GateSequence(2, synthesis._CNOT2_CORE))
    else:
        core = compose(GateSequence(3, synthesis._cnot3_core(2, 3)))[:4, :4]
    solved_pre, solved_post, theta = _correction_layers(core, phase_step)
    for solved, constant in ((solved_pre, pre), (solved_post, post)):
        assert np.abs(local_layer_unitary(solved, 2) - local_layer_unitary(constant, 2)).max() < 1e-12
    assert abs(theta - phase_step) < 1e-12


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


@CORES
def test_corrections_are_continuous_in_the_core(core, phase_step, rng):
    # the CNOT class is degenerate: rounding noise in a core must not pick
    # another member of the family of valid corrections
    def solve(u):
        pre, post, _ = _correction_layers(u, phase_step)
        rotations = [r for layer in (pre, post) for r in layer.rotations]
        return [(q, axis) for q, axis, _ in rotations], np.array([a for _, _, a in rotations])

    structure, angles = solve(core())
    for _ in range(200):
        got_structure, got = solve(perturbed(core(), rng))
        assert len(got_structure) == len(structure)
        assert got_structure == structure
        assert np.abs((got - angles + 2 * np.pi) % (4 * np.pi) - 2 * np.pi).max() <= 1e-9


def _composed(core, phase_step):
    """e^{i theta} post @ core @ pre for the solved corrections of core."""
    pre, post, theta = _correction_layers(core, phase_step)
    return np.exp(1j * theta) * local_layer_unitary(post, 2) @ core @ local_layer_unitary(pre, 2)


@pytest.mark.parametrize("decade", [-11, -10, -9])
@CORES
def test_corrections_stay_exact_beyond_the_continuous_range(core, phase_step, decade, rng):
    # past eps = 1e-11 the layers may jump to another valid correction, and the
    # core's own global phase goes into theta; the gate stays exact to about eps
    for _ in range(200):
        eps = 10.0 ** rng.uniform(decade, decade + 1)
        gate = _composed(perturbed(core(), rng, eps=eps), phase_step)
        assert np.abs(gate - cnot_gate()).max() <= 10 * eps


@CORES
@pytest.mark.parametrize("alpha", [1e-8, 0.3, -2.0, 2.5])
def test_a_core_global_phase_goes_into_theta(core, phase_step, alpha):
    # a global phase on the core, small or large, comes out in theta: the
    # composed gate stays exact, where dropping the pair's residual phase is not
    assert np.abs(_composed(np.exp(1j * alpha) * core(), phase_step) - cnot_gate()).max() < 1e-12


def _invariant_error(u):
    return max(abs(a - b) for a, b in zip(local_invariants(u), (0, 1)))


@CORES
def test_a_core_outside_the_cnot_class_raises_not_equivalent(core, phase_step):
    # the invariants are stationary in the pulse phase at CNOT, so an offset of
    # 1e-4 moves them by about 1e-8, past DEFAULT_TOL: the invariants' raise
    off = core(dphi=1e-4)
    assert _invariant_error(off) > DEFAULT_TOL
    with pytest.raises(NotEquivalent, match="different local invariants"):
        _correction_layers(off, phase_step)


@CORES
def test_a_pulse_error_fails_the_spectra_match_first(core, phase_step):
    # a pulse error moves the class's eigenvalues at first order and the
    # invariants at second: at 1e-6 the invariants agree to 1e-11, but m O = O l
    # is off by about 1e-6, past _MATCH_TOL (cnot2 raises from 1e-7, cnot3 from 3e-7)
    off = core(dphi=1e-6)
    assert _invariant_error(off) < 1e-11
    with pytest.raises(NotEquivalent, match="spectra of m and l could not be matched"):
        _correction_layers(off, phase_step)
