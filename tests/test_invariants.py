import numpy as np
import pytest
from numpy.testing import assert_allclose

from cavitygates.errors import DimensionMismatch, NotEquivalent, NotFactorable, NotUnitary
from cavitygates.evolution import HamiltonianForm, evolve
from cavitygates.gates import cnot_gate, rotation, swap_gate, u23_gate
from cavitygates.invariants import (
    MAGIC_BASIS,
    are_equivalent,
    factor_local,
    is_local,
    local_invariants,
    solve_local_corrections,
)
from cavitygates.linalg import dagger, is_unitary, kron, phase_distance

from conftest import haar_unitary


def test_magic_basis_is_unitary():
    q = MAGIC_BASIS
    assert_allclose(dagger(q) @ q, np.eye(4), atol=1e-15)
    assert abs(abs(np.linalg.det(q)) - 1) < 1e-12


def test_magic_basis_maps_locals_to_real_orthogonal(rng):
    q = MAGIC_BASIS
    for _ in range(30):
        a = haar_unitary(2, rng)
        b = haar_unitary(2, rng)
        a = a / np.sqrt(np.linalg.det(a))
        b = b / np.sqrt(np.linalg.det(b))
        w = dagger(q) @ kron(a, b) @ q
        assert np.abs(w.imag).max() < 1e-12
        assert np.abs(w @ w.T - np.eye(4)).max() < 1e-12


def test_magic_basis_is_read_only():
    assert not MAGIC_BASIS.flags.writeable  # checked first: a failed write would leak
    with pytest.raises(ValueError):
        MAGIC_BASIS[0, 0] = 99


def test_invariants_of_reference_gates():
    g1, g2 = local_invariants(cnot_gate())
    assert abs(g1) < 1e-12 and abs(g2 - 1) < 1e-12
    g1, g2 = local_invariants(np.eye(4))
    assert abs(g1 - 1) < 1e-12 and abs(g2 - 3) < 1e-12
    g1, g2 = local_invariants(u23_gate())
    assert abs(g1 - 0.25) < 1e-12 and abs(g2 - 1.5) < 1e-12
    g1, g2 = local_invariants(swap_gate())
    assert abs(g1 - (-1)) < 1e-12 and abs(g2 - (-3)) < 1e-12


def test_invariant_curve_of_collective_evolution():
    for phi in np.linspace(0, np.pi, 17):
        g1, g2 = local_invariants(evolve(2, phi, HamiltonianForm.LADDER))
        assert abs(g1 - np.cos(phi) ** 4) < 1e-9
        assert abs(g2 - (4 * np.cos(phi) ** 2 - 1)) < 1e-9


def test_invariants_reject_bad_input():
    with pytest.raises(DimensionMismatch):
        local_invariants(np.eye(2))
    with pytest.raises(NotUnitary):
        local_invariants(np.diag([1, 1, 1, 2.0]))


def test_invariants_insensitive_to_locals_and_phase(rng):
    for _ in range(100):
        m = haar_unitary(4, rng)
        base = local_invariants(m)
        dressed = local_invariants(
            kron(haar_unitary(2, rng), haar_unitary(2, rng))
            @ m
            @ kron(haar_unitary(2, rng), haar_unitary(2, rng))
        )
        assert abs(base.g1 - dressed.g1) < 1e-9
        assert abs(base.g2 - dressed.g2) < 1e-9
        phased = local_invariants(np.exp(1j * rng.uniform(0, 2 * np.pi)) * m)
        assert abs(base.g1 - phased.g1) < 1e-9
        assert abs(base.g2 - phased.g2) < 1e-9


def test_g2_nearly_real_for_unitaries(rng):
    for _ in range(50):
        inv = local_invariants(haar_unitary(4, rng))
        assert abs(inv.g2.imag) < 1e-9


def test_are_equivalent_cases(rng):
    cnot = cnot_gate()
    dressed = (
        kron(haar_unitary(2, rng), haar_unitary(2, rng))
        @ cnot
        @ kron(haar_unitary(2, rng), haar_unitary(2, rng))
    )
    assert are_equivalent(cnot, dressed)
    assert are_equivalent(cnot, np.exp(0.7j) * cnot)
    assert not are_equivalent(cnot, swap_gate())
    assert not are_equivalent(cnot, np.eye(4))


def test_is_local(rng):
    assert is_local(np.eye(4))
    assert is_local(kron(haar_unitary(2, rng), haar_unitary(2, rng)))
    assert not is_local(cnot_gate())
    assert not is_local(u23_gate())


def test_factor_local_roundtrip(rng):
    a = haar_unitary(2, rng)
    b = haar_unitary(2, rng)
    phase, fa, fb = factor_local(kron(a, b))
    assert_allclose(phase * kron(fa, fb), kron(a, b), atol=1e-12)
    assert abs(np.linalg.det(fa) - 1) < 1e-12
    assert abs(np.linalg.det(fb) - 1) < 1e-12
    with pytest.raises(NotFactorable):
        factor_local(cnot_gate())


def test_solve_corrections_self_equivalence():
    cnot = cnot_gate()
    pair = solve_local_corrections(cnot, cnot)
    rebuilt = pair.phase * pair.o_prime @ cnot @ pair.o
    assert phase_distance(rebuilt, cnot) < 1e-9
    assert is_local(pair.o) and is_local(pair.o_prime)
    assert abs(abs(pair.phase) - 1) < 1e-12


def test_solve_corrections_random_round_trip(rng):
    for _ in range(40):
        m = haar_unitary(4, rng)
        locals_in = kron(haar_unitary(2, rng), haar_unitary(2, rng))
        locals_out = kron(haar_unitary(2, rng), haar_unitary(2, rng))
        l = locals_out @ m @ locals_in
        pair = solve_local_corrections(m, l)
        assert phase_distance(pair.phase * pair.o_prime @ m @ pair.o, l) < 1e-8
        assert is_local(pair.o) and is_local(pair.o_prime)
        assert is_unitary(pair.o) and is_unitary(pair.o_prime)


def test_solve_corrections_with_random_global_phase(rng):
    # a global phase moves the unit-determinant normalization across
    # fourth-root branches, flipping the sign of the magic-basis m
    # matrix; both sign branches must reconstruct
    for _ in range(40):
        m = haar_unitary(4, rng)
        l = (
            np.exp(1j * rng.uniform(0, 2 * np.pi))
            * kron(haar_unitary(2, rng), haar_unitary(2, rng))
            @ m
            @ kron(haar_unitary(2, rng), haar_unitary(2, rng))
        )
        pair = solve_local_corrections(m, l)
        assert phase_distance(pair.phase * pair.o_prime @ m @ pair.o, l) < 1e-8
        assert is_local(pair.o) and is_local(pair.o_prime)


def test_solve_corrections_degenerate_spectrum(rng):
    # CNOT-class gates have a doubly degenerate magic-basis spectrum;
    # the solver must still produce factorable corrections
    cnot = cnot_gate()
    dressed = (
        kron(rotation("y", 0.3), rotation("x", -0.8))
        @ cnot
        @ kron(rotation("z", 1.2), rotation("y", 0.5))
    )
    pair = solve_local_corrections(cnot, dressed)
    assert phase_distance(pair.phase * pair.o_prime @ cnot @ pair.o, dressed) < 1e-9


def test_solve_corrections_collective_core_to_cnot():
    # the two-pulse core with a middle echo pulse is CNOT-equivalent and
    # the machinery recovers corrections realizing the CNOT exactly
    u = evolve(2, np.pi / 4, HamiltonianForm.LADDER)
    core = u @ kron(rotation("y", np.pi), np.eye(2)) @ u
    g1, g2 = local_invariants(core)
    assert abs(g1) < 1e-12 and abs(g2 - 1) < 1e-12
    pair = solve_local_corrections(core, cnot_gate())
    rebuilt = pair.phase * pair.o_prime @ core @ pair.o
    assert np.abs(rebuilt - cnot_gate()).max() < 1e-9


def test_solve_corrections_rejects_inequivalent():
    with pytest.raises(NotEquivalent):
        solve_local_corrections(cnot_gate(), swap_gate())


@pytest.mark.parametrize("base", ["swap", "identity"])
def test_solve_corrections_maximally_degenerate_classes(base, rng):
    # SWAP class has a triply degenerate magic-basis spectrum and the
    # identity class a fully degenerate one; any orthonormal eigenbasis
    # must still give factorable corrections
    m = swap_gate() if base == "swap" else np.eye(4, dtype=complex)
    for _ in range(25):
        l = (
            np.exp(1j * rng.uniform(0, 2 * np.pi))
            * kron(haar_unitary(2, rng), haar_unitary(2, rng))
            @ m
            @ kron(haar_unitary(2, rng), haar_unitary(2, rng))
        )
        pair = solve_local_corrections(m, l)
        assert phase_distance(pair.phase * pair.o_prime @ m @ pair.o, l) < 1e-9
        assert is_local(pair.o) and is_local(pair.o_prime)
