"""Canonical gate matrices and single-qubit rotations.

All matrices follow the big-endian qubit ordering of `linalg` (qubit 1 =
most significant bit).  Rotations use the standard SU(2) convention

    R_a(theta) = exp(-i theta sigma_a / 2),   a in {x, y, z},

so R_a(theta + 2 pi) = -R_a(theta); they are rendered as cos(theta/2) 1 - i sin(theta/2) sigma_a.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CavityGatesError, DimensionMismatch, InvalidAxis, NotUnitary, _check_control_target,
    _check_finite,
)
from .linalg import DEFAULT_TOL, _as_stack, is_unitary, read_only

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # |0><1|
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|

_AXES = ("x", "y", "z")

#: Read-only stack of the Pauli matrices, indexed as _AXES, and the identity beside them.
_PAULIS = read_only(np.array([SIGMA_X, SIGMA_Y, SIGMA_Z]))
_IDENTITY = read_only(np.eye(2))

#: An Euler angle whose half is below this is zero: above solver noise, below every tolerance.
_SMALL_HALF_ANGLE = 1e-10


def _check_rotation(axis: str, theta: float) -> None:
    """Raise InvalidAxis unless axis is x, y or z, NonFiniteValue unless theta is finite."""
    if not isinstance(axis, str) or axis not in _AXES:
        raise InvalidAxis(f"rotation axis must be one of x, y, z; got {axis!r}")
    _check_finite("rotation angle", theta)


def _rotations(axes, thetas) -> np.ndarray:
    """exp(-i theta sigma / 2) in closed form; axes (indices into _AXES) and angles broadcast."""
    half = np.asarray(thetas)[..., None, None] / 2
    return np.cos(half) * _IDENTITY - 1j * np.sin(half) * _PAULIS[axes]


def rotation(axis: str, theta: float) -> np.ndarray:
    """Single-qubit rotation exp(-i theta sigma_axis / 2), as a fresh array;
    raises as `_check_rotation` does."""
    _check_rotation(axis, theta)
    return _rotations(_AXES.index(axis), theta)


def controlled_not(n_qubits: int, control: int, target: int) -> np.ndarray:
    """CNOT on an n-qubit register as an explicit permutation matrix.

    Built directly from the truth table (flip the target bit when the
    control bit is 1), so it is independent of any synthesis machinery
    and serves as a reference for it.  Indices are 1-based.
    """
    _check_control_target(control, target, n_qubits)
    # basis state k goes to k with the target bit flipped if the control bit is set
    k = np.arange(2 ** n_qubits)
    flipped = k ^ (((k >> (n_qubits - control)) & 1) << (n_qubits - target))
    return np.eye(2 ** n_qubits, dtype=complex)[flipped]


def cnot_gate() -> np.ndarray:
    """Two-qubit CNOT, control = qubit 1, target = qubit 2."""
    return controlled_not(2, 1, 2)


def swap_gate() -> np.ndarray:
    return np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def toffoli_gate() -> np.ndarray:
    """Three-qubit Toffoli, controls = qubits 1 and 2, target = qubit 3."""
    return np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]


def u23_gate() -> np.ndarray:
    """The residual two-qubit gate exp(-i pi/3 sigma_z x sigma_z) left on
    atoms 2, 3 after spin-echo isolation of the three-atom evolution."""
    return np.diag(np.exp(-1j * (np.pi / 3) * np.array([1.0, -1.0, -1.0, 1.0])))


def zyz_angles(u) -> tuple[float, float, float]:
    """Euler angles (a, b, c) with u = R_z(a) R_y(b) R_z(c) exactly, for u in SU(2)
    (else NotUnitary): b = 2 atan2(|u10|, |u00|), a + c = 2 arg u11, a - c = 2 arg u10.
    Where b/2 or pi/2 - b/2 is below `_SMALL_HALF_ANGLE` only one combination is
    defined; all of it goes into a, and c = 0."""
    m = _as_stack(u)
    if m.shape != (2, 2):
        raise DimensionMismatch("zyz_angles expects a 2x2 matrix")
    if not is_unitary(m) or abs(np.linalg.det(m) - 1.0) > DEFAULT_TOL:
        raise NotUnitary("zyz_angles expects a unitary matrix with det 1 (SU(2))")
    half = np.arctan2(abs(m[1, 0]), abs(m[0, 0]))
    sum_ac, diff_ac = 2.0 * np.angle(m[1, 1]), 2.0 * np.angle(m[1, 0])
    if half < _SMALL_HALF_ANGLE:
        a, c = sum_ac, 0.0
    elif np.pi / 2 - half < _SMALL_HALF_ANGLE:
        a, c = diff_ac, 0.0
    else:
        a, c = (sum_ac + diff_ac) / 2.0, (sum_ac - diff_ac) / 2.0
    return float(a), float(2.0 * half), float(c)


NAMED_GATES = {
    "identity": lambda: np.eye(4, dtype=complex),
    "cnot": cnot_gate,
    "swap": swap_gate,
    "toffoli": toffoli_gate,
    "u23": u23_gate,
}


def named_gate(name: str) -> np.ndarray:
    try:
        return NAMED_GATES[name.lower()]()
    except KeyError:
        raise CavityGatesError(
            f"unknown gate {name!r}; known: {', '.join(sorted(NAMED_GATES))}"
        ) from None
