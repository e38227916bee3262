import numpy as np
import pytest
from numpy.testing import assert_allclose

from cavitygates.errors import IndexOutOfRange, InvalidQuantumNumbers
from cavitygates.linalg import expm_hermitian, kron
from cavitygates.spin import (
    cg_coefficient,
    collective_op,
    coupled_basis_transform_3,
    dicke_projector_g,
    pauli,
    s_squared,
)


def test_pauli_single_qubit():
    assert_allclose(pauli("z", 1, 1), np.diag([1, -1]))


def test_pauli_embedding_slot():
    assert_allclose(pauli("z", 2, 2), np.diag([1, -1, 1, -1]))
    assert_allclose(pauli("z", 1, 2), np.diag([1, 1, -1, -1]))


def test_ladder_product_is_ground_projector():
    # sigma_+ sigma_- = |0><0| with |0> the ground state
    assert_allclose(pauli("+", 1, 1) @ pauli("-", 1, 1), np.diag([1, 0]))


def test_pauli_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        pauli("x", 3, 2)
    with pytest.raises(IndexOutOfRange):
        pauli("x", 0, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_operators_are_read_only(n):
    ops = [pauli("x", 1, n), s_squared(n)] + [collective_op(a, n) for a in "xyz+-"]
    for op in ops:
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def test_validation_runs_before_the_cache():
    # warm the caches with valid calls first: a cache keyed on the raw
    # arguments would answer 2.0 == 2 from them, and fail on a list key
    collective_op("z", 2)
    pauli("x", 1, 2)
    with pytest.raises(IndexOutOfRange):
        collective_op("z", 2.0)
    with pytest.raises(IndexOutOfRange):
        pauli("x", 1, [2])
    with pytest.raises(IndexOutOfRange):
        pauli("x", 1.0, 2)
    with pytest.raises(IndexOutOfRange):
        s_squared(np.float64(3))
    with pytest.raises(ValueError):
        collective_op("w", 2)


def test_collective_z():
    assert_allclose(collective_op("z", 1), np.diag([0.5, -0.5]))
    # derived by summing the two embedded sigma_z / 2
    assert_allclose(collective_op("z", 2), np.diag([1, 0, 0, -1]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_angular_momentum_algebra(n):
    sx, sy, sz = (collective_op(a, n) for a in "xyz")
    assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    s2 = s_squared(n)
    for op in (sx, sy, sz):
        assert_allclose(op @ s2 - s2 @ op, np.zeros_like(s2), atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ladder_casimir_operator_identity(n):
    lhs = collective_op("+", n) @ collective_op("-", n)
    sz = collective_op("z", n)
    rhs = s_squared(n) - sz @ sz + sz
    assert np.abs(lhs - rhs).max() < 1e-12


def test_s_squared_spectra():
    assert_allclose(s_squared(1), 0.75 * np.eye(2))
    # two atoms: triplet j=1 (eigenvalue 2, three-fold) plus singlet j=0
    assert_allclose(sorted(np.linalg.eigvalsh(s_squared(2))), [0, 2, 2, 2], atol=1e-12)
    # three atoms: one j=3/2 quartet plus two j=1/2 doublets
    expected = [0.75] * 4 + [3.75] * 4
    assert_allclose(sorted(np.linalg.eigvalsh(s_squared(3))), expected, atol=1e-12)


def test_dicke_projector():
    g = dicke_projector_g()
    assert_allclose(g @ g, g, atol=1e-12)
    assert_allclose(g, g.conj().T, atol=1e-12)
    assert_allclose(sorted(np.linalg.eigvalsh(g)), [0, 0, 1, 1], atol=1e-12)
    # projects onto |00> and the symmetric Sz=0 combination
    sym = np.array([0, 1, 1, 0]) / np.sqrt(2)
    assert_allclose(g @ sym, sym, atol=1e-12)
    assert_allclose(g[:, 0], np.eye(4)[0], atol=1e-12)


def test_projector_generates_printed_evolution():
    # exp(-i phi 2G) must equal the closed form of the two-atom evolution
    phi = np.pi / 4
    c, s = np.cos(phi), np.sin(phi)
    printed = np.exp(-1j * phi) * np.array(
        [
            [np.exp(-1j * phi), 0, 0, 0],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [0, 0, 0, np.exp(1j * phi)],
        ]
    )
    assert np.abs(expm_hermitian(2 * dicke_projector_g(), phi) - printed).max() < 1e-12


def test_cg_textbook_values():
    assert cg_coefficient(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0)
    assert cg_coefficient(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(1 / np.sqrt(2))
    assert cg_coefficient(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(-1 / np.sqrt(2))
    assert cg_coefficient(0.5, 0.5, 1, 0, 1.5, 0.5) == pytest.approx(np.sqrt(2 / 3))
    assert cg_coefficient(0.5, 0.5, 0.5, 0.5, 1, 0) == 0.0  # m mismatch


@pytest.mark.parametrize(
    "j1,m1,j2,m2",
    [(0.5, 0.5, 0.5, -0.5), (0.5, -0.5, 1, 0), (1, 1, 0.5, -0.5), (1.5, 0.5, 1, -1)],
)
def test_cg_completeness(j1, m1, j2, m2):
    m = m1 + m2
    jmin = max(abs(j1 - j2), abs(m))
    total = 0.0
    j = jmin
    while j <= j1 + j2 + 1e-9:
        total += cg_coefficient(j1, m1, j2, m2, j, m) ** 2
        j += 1
    assert total == pytest.approx(1.0, abs=1e-12)


def test_cg_invalid_quantum_numbers():
    with pytest.raises(InvalidQuantumNumbers):
        cg_coefficient(0.5, 0.5, 0.5, 0.5, 3, 1)  # triangle violation
    with pytest.raises(InvalidQuantumNumbers):
        cg_coefficient(0.5, 1.5, 0.5, -0.5, 1, 1)  # |m| > j
    with pytest.raises(InvalidQuantumNumbers):
        cg_coefficient(0.3, 0.3, 0.5, 0.5, 1, 0.8)  # not half-integers
    with pytest.raises(InvalidQuantumNumbers):
        cg_coefficient(1, 0.5, 0.5, 0.5, 1.5, 1)  # m does not step from -j


def test_coupled_transform_unitary_and_stretched_state():
    w = coupled_basis_transform_3()
    assert np.linalg.norm(w.conj().T @ w - np.eye(8)) < 1e-12
    assert_allclose(np.linalg.norm(w, axis=1), np.ones(8), atol=1e-12)
    # |000> is the stretched state: atom 1 up, atoms 2-3 in |j=1, m=1>
    assert_allclose(w @ np.eye(8)[:, 0], np.eye(8)[:, 0], atol=1e-12)


def test_coupled_transform_block_diagonalizes_s_squared():
    w = coupled_basis_transform_3()
    s2 = w @ s_squared(3) @ w.conj().T
    # triplet (j23=1) sector rows 0-5, singlet (j23=0) rows 6-7
    assert np.abs(s2[:6, 6:]).max() < 1e-12
    assert np.abs(s2[6:, :6]).max() < 1e-12


def test_coupled_transform_singlet_row():
    w = coupled_basis_transform_3()
    # row 6 is atom-1-up x singlet: (|001> - |010>)/sqrt2
    expected = np.zeros(8)
    expected[1] = 1 / np.sqrt(2)
    expected[2] = -1 / np.sqrt(2)
    assert_allclose(w[6], expected, atol=1e-12)


def test_s_squared_in_coupled_basis_values():
    # eigenvalues inside each sector: coupling 1/2 with 1 gives 3/2 and 1/2;
    # coupling 1/2 with 0 gives only 1/2
    w = coupled_basis_transform_3()
    s2 = w @ s_squared(3) @ w.conj().T
    singlet_block = s2[6:, 6:]
    assert_allclose(np.linalg.eigvalsh(singlet_block), [0.75, 0.75], atol=1e-12)
    triplet_block = s2[:6, :6]
    assert_allclose(
        sorted(np.linalg.eigvalsh(triplet_block)),
        [0.75, 0.75, 3.75, 3.75, 3.75, 3.75],
        atol=1e-12,
    )


def test_echo_condition_in_coupled_picture():
    # the spin-echo timing works because exp(-i phi (S^2 - Sz^2)) acts on
    # the two total-spin sectors with phases that realign when
    # sin(3 phi / 2) = 0; check the spectrum split behind that condition
    sz = collective_op("z", 3)
    h = s_squared(3) - sz @ sz
    eigs = sorted(np.linalg.eigvalsh(h))
    assert_allclose(eigs, [0.5] * 4 + [1.5] * 2 + [3.5] * 2, atol=1e-12)
    # phase gaps are multiples of 3 = 2 * (3/2), hence the 2 pi/3 period
    gaps = {round(b - a, 9) for a in eigs for b in eigs if b - a > 1e-9}
    assert gaps == {1.0, 2.0, 3.0}
