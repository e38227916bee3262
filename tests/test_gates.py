import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from cavitygates.errors import IndexOutOfRange, InvalidAxis, NonFiniteValue
from cavitygates.gates import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    cnot_gate,
    controlled_not,
    named_gate,
    rotation,
    swap_gate,
    toffoli_gate,
    u23_gate,
    zyz_angles,
)
from cavitygates.linalg import expm_hermitian

from conftest import haar_unitary


def test_rotation_closed_forms():
    assert_allclose(rotation("z", np.pi), -1j * SIGMA_Z, atol=1e-15)
    assert_allclose(rotation("x", np.pi), -1j * SIGMA_X, atol=1e-15)
    assert_allclose(rotation("y", np.pi / 2), np.array([[1, -1], [1, 1]]) / np.sqrt(2), atol=1e-15)
    # the double cover: 2 pi rotation is -identity
    assert_allclose(rotation("y", 2 * np.pi), -np.eye(2), atol=1e-15)


def test_rotation_rejects_unknown_axis():
    for axis in ("w", "X", "+", ""):
        with pytest.raises(InvalidAxis):
            rotation(axis, 1.0)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_rotation_rejects_non_finite_angle(theta):
    with pytest.raises(NonFiniteValue):
        rotation("x", theta)


@settings(max_examples=300, deadline=None)
@given(
    axis=st.sampled_from("xyz"),
    theta=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
)
def test_rotation_is_bit_identical_to_direct_exponential(axis, theta):
    sigma = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}[axis]
    assert np.array_equal(rotation(axis, theta), expm_hermitian(sigma, theta / 2))


def test_mutating_a_rotation_does_not_leak_into_the_next_call():
    first = rotation("y", 0.4)
    first[...] = 0.0
    assert np.array_equal(rotation("y", 0.4), expm_hermitian(SIGMA_Y, 0.2))


def test_cnot_truth_table():
    cnot = cnot_gate()
    basis = np.eye(4)
    assert_allclose(cnot @ basis[:, 0], basis[:, 0])  # |00> -> |00>
    assert_allclose(cnot @ basis[:, 1], basis[:, 1])  # |01> -> |01>
    assert_allclose(cnot @ basis[:, 2], basis[:, 3])  # |10> -> |11>
    assert_allclose(cnot @ basis[:, 3], basis[:, 2])  # |11> -> |10>


def test_controlled_not_reversed_direction():
    # control on qubit 2: |01> <-> |11>
    gate = controlled_not(2, 2, 1)
    basis = np.eye(4)
    assert_allclose(gate @ basis[:, 1], basis[:, 3])
    assert_allclose(gate @ basis[:, 3], basis[:, 1])
    assert_allclose(gate @ basis[:, 0], basis[:, 0])


def test_controlled_not_three_qubits():
    gate = controlled_not(3, 1, 3)
    for col in range(8):
        expect = col ^ 1 if col & 0b100 else col
        assert gate[expect, col] == 1.0


def test_controlled_not_validation():
    with pytest.raises(IndexOutOfRange):
        controlled_not(2, 1, 1)
    with pytest.raises(IndexOutOfRange):
        controlled_not(2, 0, 1)
    with pytest.raises(IndexOutOfRange):
        controlled_not(2, 1, 3)


def test_toffoli_truth_table():
    toff = toffoli_gate()
    for col in range(8):
        expect = col ^ 1 if (col >> 1) & 1 and (col >> 2) & 1 else col
        assert toff[expect, col] == 1.0


def test_swap_gate():
    basis = np.eye(4)
    assert_allclose(swap_gate() @ basis[:, 1], basis[:, 2])
    assert_allclose(swap_gate() @ swap_gate(), np.eye(4))


def test_u23_gate_diagonal():
    third = np.exp(-1j * np.pi / 3)
    assert_allclose(np.diag(u23_gate()), [third, third.conj(), third.conj(), third])
    assert np.abs(u23_gate() - np.diag(np.diag(u23_gate()))).max() < 1e-15


def test_named_gate_registry():
    assert_allclose(named_gate("CNOT"), cnot_gate())
    assert named_gate("toffoli").shape == (8, 8)
    with pytest.raises(ValueError):
        named_gate("fredkin")


def test_zyz_roundtrip_random(rng):
    for _ in range(200):
        u = haar_unitary(2, rng)
        u = u / np.sqrt(np.linalg.det(u))
        a, b, c = zyz_angles(u)
        rebuilt = rotation("z", a) @ rotation("y", b) @ rotation("z", c)
        assert np.abs(rebuilt - u).max() < 1e-9


@pytest.mark.parametrize(
    "u",
    [
        np.eye(2, dtype=complex),
        -np.eye(2, dtype=complex),
        np.diag([1j, -1j]),
        np.array([[0, -1], [1, 0]], dtype=complex),  # R_y(pi)
        np.array([[0, 1j], [1j, 0]], dtype=complex),  # -i sigma_x
    ],
)
def test_zyz_roundtrip_edge_cases(u):
    a, b, c = zyz_angles(u)
    rebuilt = rotation("z", a) @ rotation("y", b) @ rotation("z", c)
    assert np.abs(rebuilt - u).max() < 1e-12


def test_zyz_rejects_non_su2():
    with pytest.raises(ValueError):
        zyz_angles(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        zyz_angles(1j * np.eye(2))  # det -1: U(2) but not SU(2)