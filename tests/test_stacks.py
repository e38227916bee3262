"""Stacks of matrices, shape (..., d, d), through the linear-algebra and
invariants layers: every stacked result equals, bit for bit, a loop of the
one-matrix calls."""

import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitygates import invariants
from cavitygates.errors import CavityGatesError, DimensionMismatch, NotEquivalent, NotUnitary
from cavitygates.gates import SIGMA_X, SIGMA_Y, SIGMA_Z, cnot_gate, swap_gate
from cavitygates.invariants import (
    _MAGIC_DAGGER,
    MAGIC_BASIS,
    are_equivalent,
    is_local,
    local_invariants,
    solve_local_corrections,
)
from cavitygates.linalg import (
    _sandwich,
    dagger,
    expm_hermitian,
    hermitian_spectrum,
    is_hermitian,
    is_unitary,
    kron,
    phase_distance,
)

from conftest import cnot2_core, cnot3_core, haar_unitary, perturbed


def _canonical(c1, c2, c3):
    """exp(i/2 (c1 XX + c2 YY + c3 ZZ)), the canonical gate of Weyl point (c1, c2, c3)."""
    h = sum(c * kron(p, p) for c, p in zip((c1, c2, c3), (SIGMA_X, SIGMA_Y, SIGMA_Z)))
    return expm_hermitian(h, -0.5)


def _weight_retry_gate(rng):
    """A gate whose magic-basis m has two eigenvalues e^{i(phi +- a)} that
    the solver's first weighted combination Re/pi + pi Im cannot tell apart
    (tan phi = pi^2), so its diagonalization falls back to the next weight."""
    phi = np.arctan(np.pi ** 2)
    a, b = rng.uniform(0.1, 1.0, size=2)
    angles = np.array([phi + a, phi - a, b, -(2 * phi + b)])
    o, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    o[:, 0] *= np.sign(np.linalg.det(o))
    return MAGIC_BASIS @ (np.exp(0.5j * angles)[:, None] * o.T) @ dagger(MAGIC_BASIS)


CORES = {
    "haar": lambda rng: haar_unitary(4, rng),
    "identity": lambda rng: np.eye(4, dtype=complex),
    "cnot": lambda rng: cnot_gate(),
    "swap": lambda rng: swap_gate(),
    "sqrt swap": lambda rng: _canonical(np.pi / 4, np.pi / 4, np.pi / 4),
    "iswap": lambda rng: _canonical(np.pi / 2, np.pi / 2, 0.0),
    "b gate": lambda rng: _canonical(np.pi / 2, np.pi / 4, 0.0),
    "cnot2 core": lambda rng: cnot2_core(),
    "cnot3 core": lambda rng: cnot3_core(),
    "cnot2 core + eps": lambda rng: perturbed(cnot2_core(), rng),
    "cnot3 core + eps": lambda rng: perturbed(cnot3_core(), rng),
    "weight retry": _weight_retry_gate,
}


def _dressed(m, rng):
    """e^{i alpha} (A x B) m (C x D) with Haar one-qubit factors."""
    outer = kron(haar_unitary(2, rng), haar_unitary(2, rng))
    inner = kron(haar_unitary(2, rng), haar_unitary(2, rng))
    return np.exp(1j * rng.uniform(0, 2 * np.pi)) * outer @ m @ inner


@st.composite
def core_stacks(draw):
    """(cores, targets, rng): 1-6 cores of mixed (often degenerate) classes
    and a locally equivalent target for each."""
    kinds = draw(st.lists(st.sampled_from(sorted(CORES)), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    cores = np.array([CORES[kind](rng) for kind in kinds])
    targets = np.array([_dressed(m, rng) for m in cores])
    return cores, targets, rng


def _loop(fn, *stacks):
    return np.array([fn(*args) for args in zip(*stacks)])


@settings(max_examples=40, deadline=None)
@given(core_stacks())
def test_stacked_calls_equal_a_loop_of_single_calls(drawn):
    cores, targets, rng = drawn
    locals_ = np.array([kron(haar_unitary(2, rng), haar_unitary(2, rng)) for _ in cores])
    mixed = np.where(rng.random(len(cores))[:, None, None] < 0.5, cores, locals_)
    scaled = cores * rng.choice([1.0, 1.5], size=len(cores))[:, None, None]

    inv = local_invariants(cores)
    assert np.array_equal(inv.g1, _loop(lambda m: local_invariants(m).g1, cores))
    assert np.array_equal(inv.g2, _loop(lambda m: local_invariants(m).g2, cores))
    assert np.array_equal(is_local(mixed), _loop(is_local, mixed))
    assert are_equivalent(cores, targets).all()
    assert np.array_equal(are_equivalent(cores, mixed), _loop(are_equivalent, cores, mixed))
    assert np.array_equal(is_unitary(scaled), _loop(is_unitary, scaled))
    assert np.array_equal(phase_distance(cores, targets), _loop(phase_distance, cores, targets))
    assert np.array_equal(kron(cores[:, :2, :2], targets), _loop(kron, cores[:, :2, :2], targets))

    hermitian = cores + dagger(cores)
    assert np.array_equal(is_hermitian(hermitian), _loop(is_hermitian, hermitian))
    w, v, vh = hermitian_spectrum(hermitian)
    for stacked, looped in zip((w, v, vh), zip(*map(hermitian_spectrum, hermitian))):
        assert np.array_equal(stacked, looped)
    scale = float(rng.uniform(-20.0, 20.0))
    looped = _loop(lambda h: expm_hermitian(h, scale), hermitian)
    assert np.array_equal(expm_hermitian(hermitian, scale), looped)

    pair = solve_local_corrections(cores, targets)
    singles = [solve_local_corrections(m, l) for m, l in zip(cores, targets)]
    assert np.array_equal(pair.o, [p.o for p in singles])
    assert np.array_equal(pair.o_prime, [p.o_prime for p in singles])
    assert np.array_equal(pair.phase, [p.phase for p in singles])
    rebuilt = pair.phase[:, None, None] * pair.o_prime @ cores @ pair.o
    assert phase_distance(rebuilt, targets).max() < 1e-8


def test_one_matrix_keeps_scalar_return_types(rng):
    m = haar_unitary(4, rng)
    inv = local_invariants(m)
    assert type(inv.g1) is complex and type(inv.g2) is complex
    assert type(is_local(m)) is bool and type(is_unitary(m)) is bool
    assert type(is_hermitian(m)) is bool and type(are_equivalent(m, m)) is bool
    assert type(phase_distance(m, m)) is float
    pair = solve_local_corrections(m, _dressed(m, rng))
    assert pair.o.shape == pair.o_prime.shape == (4, 4) and type(pair.phase) is complex


def test_leading_axes_are_kept(rng):
    cores = np.array([[haar_unitary(4, rng) for _ in range(3)] for _ in range(2)])
    targets = np.array([[_dressed(m, rng) for m in row] for row in cores])
    assert local_invariants(cores).g1.shape == (2, 3)
    assert is_unitary(cores).shape == is_local(cores).shape == (2, 3)
    assert phase_distance(cores, targets).shape == (2, 3)
    pair = solve_local_corrections(cores, targets)
    assert pair.o.shape == pair.o_prime.shape == (2, 3, 4, 4) and pair.phase.shape == (2, 3)
    flat = solve_local_corrections(cores.reshape(6, 4, 4), targets.reshape(6, 4, 4))
    assert np.array_equal(pair.o.reshape(6, 4, 4), flat.o)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=130), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_a_sandwiched_stack_equals_a_loop_of_single_sandwiches(k, real, seed):
    # one GEMM over a stack's rows gives each matrix the bits it gets alone, for the
    # magic-basis changes into (complex gates) and out of (real o_b) the magic basis
    rng = np.random.default_rng(seed)
    m = np.array([haar_unitary(4, rng) for _ in range(k)])
    if real:
        m = m.real
    for left, right in ((_MAGIC_DAGGER, MAGIC_BASIS), (MAGIC_BASIS, _MAGIC_DAGGER)):
        stacked = _sandwich(left, m, right)
        assert np.array_equal(stacked, _loop(lambda x: _sandwich(left, x, right), m))
        assert np.array_equal(stacked.reshape(m.shape), _sandwich(left, m[:, None], right)[:, 0])


EMPTY_STACK_CALLS = {
    "is_unitary": lambda e: (is_unitary(e),),
    "is_hermitian": lambda e: (is_hermitian(e),),
    "phase_distance": lambda e: (phase_distance(e, e),),
    "local_invariants": lambda e: tuple(local_invariants(e)),
    "is_local": lambda e: (is_local(e),),
    "are_equivalent": lambda e: (are_equivalent(e, e),),
    "solve_local_corrections": lambda e: astuple(solve_local_corrections(e, e)),
}


@pytest.mark.parametrize("call", EMPTY_STACK_CALLS.values(), ids=EMPTY_STACK_CALLS.keys())
def test_an_empty_stack_gives_empty_results(call):
    empty = np.zeros((0, 4, 4), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = call(empty)
    for result in results:
        assert result.shape[:1] == (0,)


def test_one_non_unitary_gate_fails_the_stack(rng):
    stack = np.array([haar_unitary(4, rng) for _ in range(4)])
    stack[2] *= 1.01
    for call in (local_invariants, is_local):
        with pytest.raises(NotUnitary):
            call(stack)
    with pytest.raises(NotUnitary):
        solve_local_corrections(stack, stack)


def test_one_inequivalent_pair_fails_the_stack(rng):
    cores = np.array([haar_unitary(4, rng) for _ in range(4)])
    targets = np.array([_dressed(m, rng) for m in cores])
    solve_local_corrections(cores, targets)
    cores[1], targets[1] = cnot_gate(), swap_gate()
    with pytest.raises(NotEquivalent):
        solve_local_corrections(cores, targets)


def test_a_gate_no_weight_diagonalizes_raises(monkeypatch, rng):
    # with the first weight alone the weight-retry gate has no fallback left
    monkeypatch.setattr(invariants, "_DIAG_WEIGHTS", invariants._DIAG_WEIGHTS[:1])
    gate = _weight_retry_gate(rng)
    with pytest.raises(CavityGatesError, match="failed to diagonalize a symmetric unitary"):
        solve_local_corrections(gate, _dressed(gate, rng))


def test_stacks_that_do_not_broadcast_raise_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        phase_distance(np.ones((2, 4, 4)), np.ones((3, 4, 4)))
    with pytest.raises(DimensionMismatch):
        phase_distance(np.eye(4), np.eye(2))
    with pytest.raises(DimensionMismatch):
        kron(np.ones((2, 2, 2)), np.ones((3, 2, 2)))
    with pytest.raises(DimensionMismatch):
        kron(np.eye(2), np.ones((2, 2, 2)), np.ones((3, 4, 4)))
    # leading axes that broadcast are fine
    assert kron(np.ones((2, 1, 2, 2)), np.ones((3, 2, 2))).shape == (2, 3, 4, 4)
    assert phase_distance(np.eye(4), np.ones((3, 4, 4))).shape == (3,)


def test_solver_rejects_stacks_of_different_shapes(rng):
    cores = np.array([haar_unitary(4, rng) for _ in range(3)])
    with pytest.raises(DimensionMismatch):
        solve_local_corrections(cores, cores[:2])
    with pytest.raises(DimensionMismatch):
        are_equivalent(cores, cores[:2])
    with pytest.raises(DimensionMismatch):
        local_invariants(np.eye(8)[None])
