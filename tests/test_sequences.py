import copy
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from functools import partial, reduce
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import cavitygates
from cavitygates import sequences as sequences_module
from cavitygates.errors import (
    CavityGatesError,
    IndexOutOfRange,
    InvalidAxis,
    InvalidForm,
    NonFiniteValue,
)
from cavitygates.evolution import HamiltonianForm, evolve
from cavitygates.gates import rotation
from cavitygates.linalg import kron, phase_distance, read_only
from cavitygates.sequences import (
    CollectiveEvolution,
    GateSequence,
    GlobalPhase,
    LocalLayer,
    _generators,
    _product,
    _step_unitaries,
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
    """Independent reference: every qubit starts from its own identity,
    rotations multiply into it, the factors are chained with np.kron."""
    singles = [np.eye(2, dtype=complex) for _ in range(n_atoms)]
    for qubit, axis, angle in layer.rotations:
        singles[qubit - 1] = rotation(axis, angle) @ singles[qubit - 1]
    return reduce(np.kron, singles)


def _factors(step, n_atoms):
    """One step's factors from public one-matrix calls, in application order:
    evolve, the phase times the identity, or per rotation a kron of
    rotation(...) with identities on the other qubits."""
    if isinstance(step, CollectiveEvolution):
        return [evolve(n_atoms, step.phi, step.form)]
    if isinstance(step, GlobalPhase):
        return [np.exp(1j * step.theta) * np.eye(2 ** n_atoms, dtype=complex)]
    return [
        kron(*(rotation(axis, angle) if q == qubit else np.eye(2, dtype=complex)
               for q in range(1, n_atoms + 1)))
        for qubit, axis, angle in step.rotations
    ]


def _pairwise(factors, n_atoms):
    """The product of 2-D factors (first acts first), paired as compose pairs
    them: neighbours level by level, an odd last factor carried up."""
    if not factors:
        return np.eye(2 ** n_atoms, dtype=complex)
    while len(factors) > 1:
        pairs = [factors[i + 1] @ factors[i] for i in range(0, len(factors) - 1, 2)]
        factors = pairs + factors[2 * len(pairs):]
    return factors[0]


#: Allowed distance of the pairwise product from an independent one-at-a-time
#: product, per factor: a few eps, as both round each 8x8 product differently.
EPS_PER_FACTOR = 4 * np.finfo(float).eps


def _close(a, b, n_factors):
    return np.abs(a - b).max() <= EPS_PER_FACTOR * max(n_factors, 1)


def test_local_layer_is_bit_identical_to_eye_seeded_product():
    # bit for bit the pairwise product of the per-rotation krons; the
    # eye-seeded per-qubit product is an independent check to a few eps
    rng = np.random.default_rng(4)
    layers = [
        (1, LocalLayer(())),
        (3, LocalLayer(())),
        (3, LocalLayer(((2, "x", 0.3),))),  # qubits 1 and 3 untouched
        (2, LocalLayer(((1, "z", 0.3), (1, "y", 1.1), (1, "z", -2.0)))),
        (3, LocalLayer(((3, "z", 0.3), (3, "y", 1.1), (3, "x", -2.0), (3, "y", 0.6), (3, "z", 4.4)))),
    ]
    for _ in range(300):
        n = int(rng.integers(1, 4))
        rotations = tuple(
            (int(rng.integers(1, n + 1)), str(rng.choice(list("xyz"))), float(rng.uniform(-10, 10)))
            for _ in range(int(rng.integers(0, 6)))
        )
        layers.append((n, LocalLayer(rotations)))
    for n, layer in layers:
        u = local_layer_unitary(layer, n)
        assert np.array_equal(u, _pairwise(_factors(layer, n), n))
        assert _close(u, _eye_seeded_layer(layer, n), len(layer.rotations))


def test_mutating_a_layer_does_not_leak_into_the_next_call():
    for n, layer in ((1, LocalLayer(())), (1, LocalLayer(((1, "x", 0.7),))),
                     (3, LocalLayer(((2, "y", -0.2),)))):
        first = local_layer_unitary(layer, n)
        first[...] = 0.0
        assert np.array_equal(local_layer_unitary(layer, n), _pairwise(_factors(layer, n), n))


#: Placement angles: the axis points, where cos or sin of the half angle is 0 or
#: +-1 to rounding, and a few drawn ones.
PLACEMENT_ANGLES = (0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2,
                    *np.random.default_rng(14).uniform(-10.0, 10.0, 4))


def _bytes(u):
    """u's bytes with -0.0 read as +0.0: a rendered factor and the complex products of a
    kron with identities may give a zero entry different signs."""
    return (u + 0.0).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_rotation_is_written_where_its_kron_with_identities_puts_it(n):
    for qubit in range(1, n + 1):
        for axis in "xyz":
            for angle in PLACEMENT_ANGLES:
                placed = kron(*(rotation(axis, angle) if q == qubit else np.eye(2)
                                for q in range(1, n + 1)))
                u = step_unitary(LocalLayer(((qubit, axis, angle),)), n)
                assert _bytes(u) == _bytes(placed), (qubit, axis, angle)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_global_phase_is_written_onto_the_diagonal(n):
    for theta in PLACEMENT_ANGLES:
        u = step_unitary(GlobalPhase(theta), n)
        assert _bytes(u) == _bytes(np.exp(1j * theta) * np.eye(2 ** n)), theta


def _steps_of_each_kind(n):
    """Steps of only pulses, only rotations, only phases (three in a row), and all three mixed."""
    pulses = (CollectiveEvolution(0.7, LADDER), CollectiveEvolution(-2.3, CASIMIR))
    rotations = (_layer(n, ("x", 0.4), ("y", -1.9)), LocalLayer(((1, "z", 2.6),)))
    phases = (GlobalPhase(0.3), GlobalPhase(-2.9), GlobalPhase(1.7))
    mixed = (rotations[0], pulses[0], phases[0], rotations[1], pulses[1], *phases[1:])
    return [pulses, rotations, phases, mixed]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_slot_of_the_uninitialised_stack_is_written(n):
    # the stack is np.empty: a slot no kind writes would keep stale memory, here a NaN block
    # of the stack's size, filled and freed just before the compose that likely reuses it
    d = 2 ** n
    for steps in _steps_of_each_kind(n):
        factors = [f for step in steps for f in _factors(step, n)]
        np.full((len(factors), d, d), np.nan, dtype=complex)  # freed at once
        u = compose(GateSequence(n, steps))
        assert np.isfinite(u).all()
        assert _bytes(u) == _bytes(_pairwise(factors, n))


def test_rotation_table_is_read_only_and_built_on_first_use():
    src = str(Path(cavitygates.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = "import cavitygates.sequences as s; assert s._generators.cache_info().currsize == 0"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    for n in (1, 2, 3):
        table = _generators(n)
        assert table.shape == (3 * n, 2 ** n, 2 ** n) and _generators(n) is table
        with pytest.raises(ValueError):
            table[0] = 0


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


@pytest.mark.parametrize("phi", [np.nan, np.inf, 1e308, -1e308])  # phi H_0 overflows at 1e308
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


class _Phase(GlobalPhase):
    pass


def test_sequence_rejects_unknown_step_type():
    with pytest.raises(TypeError):
        GateSequence(2, (np.eye(4),))
    # the steps are rendered by their exact type, so a subclass is another type
    with pytest.raises(TypeError):
        GateSequence(2, (_Phase(0.3),))


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


def _reference_compose(seq):
    """Independent reference: one matrix per step (a layer as its eye-seeded
    per-qubit product), folded one product at a time."""
    n = seq.n_atoms
    out = np.eye(2 ** n, dtype=complex)
    for step in seq.steps:
        u = _eye_seeded_layer(step, n) if isinstance(step, LocalLayer) else _factors(step, n)[0]
        out = u @ out
    return out


def _layer(qubit, *pairs):
    return LocalLayer(tuple((qubit, axis, angle) for axis, angle in pairs))


@settings(max_examples=300, deadline=None)
@given(sequences())
@example(GateSequence(2))
@example(GateSequence(3, (LocalLayer(()),)))
@example(GateSequence(2, (CollectiveEvolution(0.7, LADDER),)))  # 1 factor
@example(GateSequence(3, (CollectiveEvolution(0.7, LADDER), GlobalPhase(0.2))))  # 2 factors
@example(GateSequence(2, (LocalLayer(((2, "z", 0.3), (2, "y", 1.1), (2, "x", -2.0))),)))  # 3 factors
@example(GateSequence(3, (  # 5 factors: the odd last one is carried up twice
    CollectiveEvolution(0.7, LADDER), _layer(1, ("x", 0.2), ("z", 0.9)),
    GlobalPhase(0.1), CollectiveEvolution(-0.3, CASIMIR),
)))
@example(GateSequence(3, (GlobalPhase(0.4), GlobalPhase(-1.3), GlobalPhase(2.2))))
@example(GateSequence(3, (LocalLayer(()), CollectiveEvolution(0.5, CASIMIR), LocalLayer(()))))
@example(GateSequence(3, (  # four or more on one qubit: pairwise is not sequential here
    _layer(2, ("z", 0.3), ("y", 1.1), ("x", -2.0), ("y", 0.6), ("z", 4.4)),
    CollectiveEvolution(2.1, CASIMIR), _layer(3, ("x", 1.7), ("y", -0.8), ("z", 2.5), ("x", 0.1)),
)))
@example(GateSequence(1, (
    CollectiveEvolution(0.7, LADDER), LocalLayer(((1, "x", 0.2), (1, "z", 0.9))),
    GlobalPhase(0.1), CollectiveEvolution(-0.3, CASIMIR),
)))
@example(GateSequence(3, (
    CollectiveEvolution(0.7, LADDER), CollectiveEvolution(2.1, CASIMIR),
    LocalLayer(((2, "y", 0.5), (3, "z", 1.0), (2, "x", 0.25))), CollectiveEvolution(-0.4, LADDER),
)))
def test_stacked_rendering_equals_the_one_matrix_fold(seq):
    # bit for bit the 2-D pairwise product of the one-matrix factors; the
    # sequential fold of one matrix per step is an independent check to a few eps
    n = seq.n_atoms
    for step in seq.steps:
        factors = _factors(step, n)
        assert np.array_equal(step_unitary(step, n), _pairwise(factors, n))
        if isinstance(step, LocalLayer):
            assert np.array_equal(local_layer_unitary(step, n), _pairwise(factors, n))
    factors = [f for step in seq.steps for f in _factors(step, n)]
    u = compose(seq)
    assert np.array_equal(u, _pairwise(factors, n))
    assert _close(u, _reference_compose(seq), len(factors))


# -- the kept factor stack: from its second compose on, a sequence object only multiplies

#: Five factors, so `_product` runs three levels and carries an odd factor up.
KEPT = GateSequence(3, (
    CollectiveEvolution(0.7, LADDER), _layer(1, ("x", 0.2), ("z", 0.9)),
    GlobalPhase(0.1), CollectiveEvolution(-0.3, CASIMIR),
))


def test_a_sequence_renders_on_its_first_two_composes_and_never_again(monkeypatch):
    rendered = []

    def spy(seq):
        rendered.append(seq)
        return _step_unitaries(seq)

    monkeypatch.setattr(sequences_module, "_step_unitaries", spy)
    seq = replace(KEPT)
    counts = []
    for _ in range(5):
        compose(seq)
        counts.append(len(rendered))
    assert counts == [1, 2, 2, 2, 2]
    compose(replace(seq))  # an equal but distinct object renders its own
    assert len(rendered) == 3 and rendered[-1] is not seq


def test_the_kept_stack_is_read_only():
    seq = replace(KEPT)
    compose(seq)
    compose(seq)
    kept = seq.__dict__["_stack"]
    assert kept.shape == (5, 8, 8) and not kept.flags.writeable
    with pytest.raises(ValueError):
        kept[0] = 0


def test_a_copied_or_unpickled_sequence_keeps_no_stack():
    seq = replace(KEPT)
    compose(seq)
    compose(seq)
    for other in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
        assert other == seq and "_stack" not in other.__dict__
        assert compose(other).tobytes() == compose(seq).tobytes()
    assert len(pickle.dumps(seq)) < 2000  # the fields, not the 5 kB stack


def test_product_reads_a_read_only_stack_and_leaves_it_unchanged():
    for seq in (replace(KEPT), GateSequence(2, (CollectiveEvolution(0.4, LADDER),))):
        us = _step_unitaries(seq)
        want = _product(us.copy())
        before = us.copy()
        assert np.array_equal(_product(read_only(us)), want)
        assert np.array_equal(us, before)


@settings(max_examples=150, deadline=None)
@given(sequences())
@example(KEPT)
@example(GateSequence(2))
def test_every_compose_of_an_object_is_bit_identical_and_a_fresh_array(drawn):
    seq = replace(drawn)  # an object no earlier example composed
    us = [compose(seq) for _ in range(3)]
    fresh = compose(replace(drawn))
    assert seq.__dict__["_stack"].tobytes() == _step_unitaries(replace(drawn)).tobytes()
    assert seq == replace(drawn) and hash(seq) == hash(replace(drawn))
    for u in us:
        assert u.flags.writeable and u.tobytes() == fresh.tobytes()
    arrays = [*us, fresh, seq.__dict__["_stack"]]
    assert not any(np.shares_memory(a, b) for a, b in combinations(arrays, 2))
    for u in us:
        u[...] = np.nan  # each result owns its memory: nothing later sees the write
    assert compose(seq).tobytes() == fresh.tobytes()
    # steps given by a generator or as lists are stored as the tuples: read once, hashable
    lists = [LocalLayer([list(r) for r in s.rotations]) if type(s) is LocalLayer else s
             for s in drawn.steps]
    for steps in ((s for s in drawn.steps), lists, iter(lists)):
        other = GateSequence(drawn.n_atoms, steps, drawn.label)
        assert other == seq and hash(other) == hash(seq)
        assert compose(other).tobytes() == fresh.tobytes()


def test_a_patched_pulse_is_seen_by_a_fresh_sequence_not_by_a_kept_one(monkeypatch):
    # why fault tests clear the named-sequence caches (conftest's fresh_synthesis): a named
    # sequence composed twice keeps the factors it rendered before the patch
    seq = replace(KEPT)
    compose(seq)
    want = compose(seq)
    pulses = sequences_module._pulses
    monkeypatch.setattr(sequences_module, "_pulses", lambda *args: pulses(*args).conj())
    assert np.array_equal(compose(seq), want)
    assert not np.allclose(compose(replace(seq)), want)
