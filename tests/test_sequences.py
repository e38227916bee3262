from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from cavitygates.errors import (
    CavityGatesError,
    IndexOutOfRange,
    InvalidAxis,
    InvalidForm,
    NonFiniteValue,
)
from cavitygates.evolution import HamiltonianForm, evolve
from cavitygates.gates import rotation
from cavitygates.linalg import kron, phase_distance
from cavitygates.sequences import (
    CollectiveEvolution,
    GateSequence,
    GlobalPhase,
    LocalLayer,
    collective_time,
    compose,
    local_layer_unitary,
    step_unitary,
)

from conftest import ANGLES, sequences

LADDER = HamiltonianForm.LADDER
CASIMIR = HamiltonianForm.CASIMIR

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def test_compose_empty_is_identity():
    assert_allclose(compose(GateSequence(2)), np.eye(4))


def test_compose_merges_same_generator():
    seq = GateSequence(
        2, (CollectiveEvolution(0.3, LADDER), CollectiveEvolution(0.5, LADDER))
    )
    assert_allclose(compose(seq), evolve(2, 0.8, LADDER), atol=1e-12)


def test_compose_order_first_step_acts_first():
    # rotation then evolution = evolution matrix times rotation matrix
    layer = LocalLayer(((1, "x", 0.7),))
    seq = GateSequence(2, (layer, CollectiveEvolution(0.4, CASIMIR)))
    expected = evolve(2, 0.4, CASIMIR) @ kron(rotation("x", 0.7), np.eye(2))
    assert_allclose(compose(seq), expected, atol=1e-12)


def test_local_layer_per_qubit_order():
    # two rotations on the same qubit apply in list order
    layer = LocalLayer(((1, "z", 0.3), (1, "y", 1.1), (2, "x", -0.4)))
    expected = kron(rotation("y", 1.1) @ rotation("z", 0.3), rotation("x", -0.4))
    assert_allclose(local_layer_unitary(layer, 2), expected, atol=1e-12)


def _eye_seeded_layer(layer, n_atoms):
    """Reference: every qubit starts from its own identity, rotations
    multiply into it, the factors are chained with np.kron."""
    singles = [np.eye(2, dtype=complex) for _ in range(n_atoms)]
    for qubit, axis, angle in layer.rotations:
        singles[qubit - 1] = rotation(axis, angle) @ singles[qubit - 1]
    return reduce(np.kron, singles)


def test_local_layer_is_bit_identical_to_eye_seeded_product():
    rng = np.random.default_rng(4)
    layers = [
        (1, LocalLayer(())),
        (3, LocalLayer(())),
        (3, LocalLayer(((2, "x", 0.3),))),  # qubits 1 and 3 untouched
        (2, LocalLayer(((1, "z", 0.3), (1, "y", 1.1), (1, "z", -2.0)))),
    ]
    for _ in range(300):
        n = int(rng.integers(1, 4))
        rotations = tuple(
            (int(rng.integers(1, n + 1)), str(rng.choice(list("xyz"))), float(rng.uniform(-10, 10)))
            for _ in range(int(rng.integers(0, 6)))
        )
        layers.append((n, LocalLayer(rotations)))
    for n, layer in layers:
        assert np.array_equal(local_layer_unitary(layer, n), _eye_seeded_layer(layer, n))


def test_mutating_a_layer_does_not_leak_into_the_next_call():
    for n, layer in ((1, LocalLayer(())), (1, LocalLayer(((1, "x", 0.7),))),
                     (3, LocalLayer(((2, "y", -0.2),)))):
        first = local_layer_unitary(layer, n)
        first[...] = 0.0
        assert np.array_equal(local_layer_unitary(layer, n), _eye_seeded_layer(layer, n))


def test_local_layer_unitary_rejects_bad_axis():
    with pytest.raises(InvalidAxis):
        local_layer_unitary(LocalLayer(((1, "w", 1.0),)), 2)


@pytest.mark.parametrize("n_atoms", [0, 4, 5, -1, 2.0, "2", None])
def test_sequence_rejects_bad_register_size(n_atoms):
    with pytest.raises(IndexOutOfRange):
        GateSequence(n_atoms, (LocalLayer(((1, "x", 1.0),)),))


def test_local_layer_rejects_bad_qubit():
    with pytest.raises(IndexOutOfRange):
        GateSequence(2, (LocalLayer(((3, "x", 1.0),)),))


@pytest.mark.parametrize("axis", ["w", "X", "+", ""])
def test_local_layer_rejects_bad_axis(axis):
    with pytest.raises(InvalidAxis):
        GateSequence(2, (LocalLayer(((1, axis, 1.0),)),))


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_local_layer_rejects_non_finite_angle(angle):
    with pytest.raises(NonFiniteValue):
        GateSequence(2, (LocalLayer(((1, "z", 0.5), (2, "x", angle))),))


@pytest.mark.parametrize("phi", [np.nan, np.inf])
def test_collective_step_rejects_non_finite_phi(phi):
    with pytest.raises(NonFiniteValue):
        GateSequence(2, (CollectiveEvolution(phi, LADDER),))


@pytest.mark.parametrize("theta", [np.nan, -np.inf])
def test_global_phase_rejects_non_finite_theta(theta):
    with pytest.raises(NonFiniteValue):
        GateSequence(2, (GlobalPhase(theta),))


@pytest.mark.parametrize(
    "render, step, n_atoms",
    [
        (local_layer_unitary, LocalLayer(((5, "x", 1.0),)), 5),
        (local_layer_unitary, LocalLayer(((1, "x", 1.0),)), 4),
        (step_unitary, GlobalPhase(0.3), 6),
        (step_unitary, GlobalPhase(0.3), 0),
        (step_unitary, LocalLayer(((1, "y", 0.2),)), 4),
    ],
)
def test_direct_step_unitary_rejects_bad_register(render, step, n_atoms):
    with pytest.raises(IndexOutOfRange):
        render(step, n_atoms)


def test_sequence_rejects_unknown_step_type():
    with pytest.raises(TypeError):
        GateSequence(2, (np.eye(4),))


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_random_valid_sequence_composes_to_a_unitary(seq):
    u = compose(seq)
    assert np.linalg.norm(u.conj().T @ u - np.eye(2 ** seq.n_atoms)) < 1e-12


@st.composite
def invalid_steps(draw):
    """(constructor of a step with one invalid field, the error it must raise)."""
    field = draw(st.sampled_from(["qubit", "axis", "angle", "phi", "form", "theta"]))
    prefix = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from("xyz"), ANGLES), max_size=2))
    if field == "qubit":
        qubit = draw(st.one_of(st.integers(max_value=0), st.floats(), st.text(max_size=2), st.none()))
        return partial(LocalLayer, (*prefix, (qubit, "x", 0.3))), IndexOutOfRange
    if field == "axis":
        not_an_axis = st.text().filter(lambda a: a not in ("x", "y", "z"))
        axis = draw(st.one_of(not_an_axis, st.integers(), st.none()))
        return partial(LocalLayer, (*prefix, (1, axis, 0.3))), InvalidAxis
    if field == "angle":
        return partial(LocalLayer, (*prefix, (1, "z", draw(NON_FINITE)))), NonFiniteValue
    if field == "phi":
        form = draw(st.sampled_from(list(HamiltonianForm)))
        return partial(CollectiveEvolution, draw(NON_FINITE), form), NonFiniteValue
    if field == "form":
        form = draw(st.one_of(st.sampled_from(["ladder", "casimir"]), st.integers(), st.none()))
        return partial(CollectiveEvolution, draw(ANGLES), form), InvalidForm
    return partial(GlobalPhase, draw(NON_FINITE)), NonFiniteValue


@settings(max_examples=300, deadline=None)
@given(invalid_steps())
@example((partial(CollectiveEvolution, 0.5, "ladder"), InvalidForm))
@example((partial(LocalLayer, ((1.5, "x", 0.3),)), IndexOutOfRange))
def test_invalid_step_field_raises_typed_error_at_construction(case):
    make, error = case
    with pytest.raises(error) as raised:
        make()
    assert isinstance(raised.value, CavityGatesError)


def test_global_phase_step():
    seq = GateSequence(1, (GlobalPhase(np.pi / 3),))
    assert_allclose(compose(seq), np.exp(1j * np.pi / 3) * np.eye(2))


def test_collective_time_sums_magnitudes():
    seq = GateSequence(
        3,
        (
            CollectiveEvolution(2 * np.pi / 3, CASIMIR),
            LocalLayer(((1, "x", np.pi),)),
            CollectiveEvolution(-2 * np.pi / 3, CASIMIR),
            GlobalPhase(1.0),
        ),
    )
    assert collective_time(seq) == 2 * (2 * np.pi / 3)


def test_composed_sequences_are_nbar_independent():
    seq = GateSequence(
        2,
        (
            CollectiveEvolution(np.pi / 4, LADDER),
            LocalLayer(((1, "y", np.pi),)),
            CollectiveEvolution(np.pi / 4, LADDER),
        ),
    )
    ref = compose(seq, nbar=0.0)
    for nbar in (0.5, 3.7):
        assert phase_distance(compose(seq, nbar=nbar), ref) < 1e-9
