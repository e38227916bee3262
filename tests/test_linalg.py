import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from cavitygates.errors import DimensionMismatch, NotHermitian
from cavitygates.gates import SIGMA_X, SIGMA_Z, controlled_not, toffoli_gate
from cavitygates.linalg import (
    _sandwich,
    dagger,
    expm_hermitian,
    hermitian_spectrum,
    is_unitary,
    kron,
    phase_distance,
)
from cavitygates.sequences import compose
from cavitygates.synthesis import cnot2_sequence, cnot3_sequence, spin_echo_u23, toffoli_sequence

from conftest import haar_unitary

I2 = np.eye(2)


def test_kron_identity():
    assert_allclose(kron(I2, I2), np.eye(4))


def test_kron_first_factor_is_most_significant():
    # sigma_x on qubit 1 swaps |00><->|10| and |01><->|11>
    swap_msb = kron(SIGMA_X, I2)
    e00 = np.zeros(4)
    e00[0] = 1
    assert_allclose(swap_msb @ e00, np.eye(4)[2])
    e01 = np.eye(4)[1]
    assert_allclose(swap_msb @ e01, np.eye(4)[3])


def test_kron_zz_closed_form():
    assert_allclose(kron(np.diag([1, -1]), np.diag([1, -1])), np.diag([1, -1, -1, 1]))


@given(
    st.lists(
        st.integers(min_value=-8, max_value=8).map(lambda k: k / 4.0),
        min_size=12,
        max_size=12,
    )
)
def test_kron_associativity_is_bit_identical(vals):
    # entries are small dyadic rationals, so all products are exact floats
    # and the ordering contract can be checked with bit-identical equality
    a = np.array(vals[:4], dtype=complex).reshape(2, 2)
    b = np.array(vals[4:8], dtype=complex).reshape(2, 2)
    c = np.array(vals[8:], dtype=complex).reshape(2, 2)
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert np.array_equal(left, right)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kron_is_bit_identical_to_numpy(da, db, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
    b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
    assert np.array_equal(kron(a, b), np.kron(a, b))


@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_variadic_kron_equals_chained_numpy(dims, seed):
    rng = np.random.default_rng(seed)
    factors = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims]
    chained = factors[0]
    for factor in factors[1:]:
        chained = np.kron(chained, factor)
    assert np.array_equal(kron(*factors), chained)


def test_kron_of_one_factor_is_a_fresh_copy():
    out = kron(SIGMA_X)
    assert np.array_equal(out, SIGMA_X)
    out[0, 0] = 5.0
    assert SIGMA_X[0, 0] == 0
    with pytest.raises(TypeError):
        kron()


def test_dagger_involution_and_values():
    assert_allclose(dagger(np.eye(3)), np.eye(3))
    assert_allclose(dagger(np.diag([1j, -1j])), np.diag([-1j, 1j]))
    m = np.arange(4).reshape(2, 2) + 1j
    assert_allclose(dagger(dagger(m)), m)


def test_dagger_of_unitary_inverts(rng):
    u = haar_unitary(4, rng)
    assert_allclose(dagger(u) @ u, np.eye(4), atol=1e-12)


def test_expm_zero_generator():
    assert_allclose(expm_hermitian(np.zeros((3, 3)), 2.7), np.eye(3))


def test_expm_diagonal_generator():
    got = expm_hermitian(SIGMA_Z, np.pi / 2)
    assert_allclose(got, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-15)


def test_expm_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        expm_hermitian(np.array([[0, 1], [0, 0]]), 1.0)


def test_expm_group_property(rng):
    z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = z + z.conj().T
    for s1, s2 in [(0.3, 1.1), (-2.0, 0.7)]:
        prod = expm_hermitian(h, s1) @ expm_hermitian(h, s2)
        assert_allclose(prod, expm_hermitian(h, s1 + s2), atol=1e-9)


def test_expm_output_is_unitary(rng):
    for _ in range(20):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = expm_hermitian(z + z.conj().T, rng.uniform(-3, 3))
        assert is_unitary(u)


def test_phase_distance_trivial_cases(rng):
    u = haar_unitary(4, rng)
    assert phase_distance(u, u) == pytest.approx(0.0, abs=1e-14)
    for alpha in (0.1, 2.5, -1.0):
        assert phase_distance(u, np.exp(1j * alpha) * u) == pytest.approx(0.0, abs=1e-14)


def test_phase_distance_of_a_composed_gate_to_itself_is_exactly_zero():
    # Im Tr(u^dagger u) cancels exactly; as one complex product it kept about 1e-32
    cnot2 = compose(cnot2_sequence())
    assert phase_distance(cnot2, cnot2) == 0.0
    three = np.array([compose(seq) for seq in (
        spin_echo_u23(+1), toffoli_sequence(False), toffoli_sequence(True), cnot3_sequence())])
    assert phase_distance(three, three).tolist() == [0.0] * 4
    assert [phase_distance(u, u) for u in three] == [0.0] * 4
    # and a stack still gives each gate the bits it gets alone
    simplified = np.diag([1, 1, 1, 1, 1, -1, 1, 1]) @ toffoli_gate()  # |101> flips sign
    targets = np.array([compose(spin_echo_u23(-1)).conj().T, toffoli_gate(), simplified,
                        controlled_not(3, 2, 3)])
    stacked = phase_distance(three, targets)
    assert stacked.tolist() == [phase_distance(u, t) for u, t in zip(three, targets)]
    assert stacked.max() < 1e-13


def test_phase_distance_identity_vs_not():
    # Tr(sigma_x) = 0, so no phase helps: distance is sqrt(2 + 2) = 2.
    # Cross-check by brute-force minimization over sampled phases.
    assert phase_distance(I2, SIGMA_X) == pytest.approx(2.0, abs=1e-12)
    thetas = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
    brute = min(
        np.linalg.norm(I2 - np.exp(1j * t) * SIGMA_X) for t in thetas
    )
    assert phase_distance(I2, SIGMA_X) == pytest.approx(brute, abs=1e-6)


def test_phase_distance_resolves_tiny_distances(rng):
    # the direct evaluation must not floor out near sqrt(machine eps)
    u = haar_unitary(4, rng)
    assert phase_distance(u, np.exp(0.31j) * u) < 1e-12


def test_phase_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        phase_distance(np.eye(2), np.eye(4))


@pytest.mark.parametrize(
    "other", [np.ones((1, 4)), np.eye(8), np.ones((1, 1)), np.ones((3, 1, 1))],
    ids=["(1, 4)", "(8, 8)", "(1, 1)", "(3, 1, 1)"],
)
def test_phase_distance_rejects_matrices_of_another_size(other):
    # the overlap is an elementwise product, which alone would broadcast a
    # (1, 1) matrix against a (4, 4) one: the matrix axes are checked first
    for a, b in ((np.eye(4), other), (other, np.eye(4))):
        with pytest.raises(DimensionMismatch):
            phase_distance(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from([2, 4, 8]), st.booleans())
def test_sandwich_agrees_with_the_chained_product(seed, d, real):
    rng = np.random.default_rng(seed)
    left, right = haar_unitary(d, rng), haar_unitary(d, rng)
    m = np.array([haar_unitary(d, rng) for _ in range(5)]).reshape(5, 1, d, d)
    if real:
        m = m.real
    product = _sandwich(left, m, right)
    assert product.shape == m.shape
    # unit-norm rows and columns: every entry is a sum of d products of size <= 1
    assert np.abs(product - left @ m @ right).max() < 4 * d * np.finfo(float).eps


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_phase_distance_symmetry_and_triangle(seed):
    rng = np.random.default_rng(seed)
    u, v, w = (haar_unitary(4, rng) for _ in range(3))
    duv = phase_distance(u, v)
    assert duv == pytest.approx(phase_distance(v, u), abs=1e-9)
    assert duv <= phase_distance(u, w) + phase_distance(w, v) + 1e-9


def test_hermitian_unitary_predicates():
    # hermitian_spectrum checks ||h - h^dagger||_F = 2 sqrt(2) eps < DEFAULT_TOL for X + i eps Z
    assert_allclose(hermitian_spectrum(SIGMA_X)[0], [-1.0, 1.0])
    assert hermitian_spectrum(SIGMA_X + 3e-10j * SIGMA_Z)[0].shape == (2,)
    for bad in (np.array([[0, 1], [0, 0]]), SIGMA_X + 4e-10j * SIGMA_Z):
        with pytest.raises(NotHermitian):
            hermitian_spectrum(bad)
    assert is_unitary(SIGMA_X)
    assert not is_unitary(2 * np.eye(2))
