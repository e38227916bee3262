"""Canonical gate matrices and single-qubit rotations.

All matrices follow the big-endian qubit ordering of `linalg` (qubit 1 =
most significant bit).  Rotations use the standard SU(2) convention

    R_a(theta) = exp(-i theta sigma_a / 2),   a in {x, y, z},

so R_a(theta + 2 pi) = -R_a(theta).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CavityGatesError, DimensionMismatch, InvalidAxis, NotUnitary, _check_control_target,
    _check_finite,
)
from .linalg import (
    DEFAULT_TOL, _as_stack, expm_hermitian, expm_spectral, hermitian_spectrum, kron, read_only,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # |0><1|
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|

_AXES = ("x", "y", "z")

#: Read-only stacks (w, v, v^dagger) of the Pauli spectra, indexed as _AXES; eigh is
#: deterministic, so rendering from them equals a fresh expm_hermitian(sigma, theta / 2).
_PAULI_SPECTRA = tuple(read_only(a) for a in hermitian_spectrum([SIGMA_X, SIGMA_Y, SIGMA_Z]))


def _check_rotation(axis: str, theta: float) -> None:
    """Raise InvalidAxis unless axis is x, y or z, NonFiniteValue unless theta is finite."""
    if not isinstance(axis, str) or axis not in _AXES:
        raise InvalidAxis(f"rotation axis must be one of x, y, z; got {axis!r}")
    _check_finite("rotation angle", theta)


def rotation(axis: str, theta: float) -> np.ndarray:
    """Single-qubit rotation exp(-i theta sigma_axis / 2), as a fresh array;
    raises as `_check_rotation` does."""
    _check_rotation(axis, theta)
    w, v, vh = _PAULI_SPECTRA
    i = _AXES.index(axis)
    return expm_spectral(w[i], v[i], vh[i], theta / 2)


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
    return expm_hermitian(kron(SIGMA_Z, SIGMA_Z), np.pi / 3)


def zyz_angles(u) -> tuple[float, float, float]:
    """Euler angles (a, b, c) with u = R_z(a) R_y(b) R_z(c), for u in SU(2).

    The decomposition is exact (no leftover phase): the double cover is
    handled by shifting a by 2 pi when the reconstructed sign is flipped.
    """
    m = _as_stack(u)
    if m.shape != (2, 2):
        raise DimensionMismatch("zyz_angles expects a 2x2 matrix")
    if abs(np.linalg.det(m) - 1.0) > DEFAULT_TOL:
        raise NotUnitary("zyz_angles expects det = 1 (SU(2)) input")
    b = 2.0 * np.arctan2(abs(m[1, 0]), abs(m[0, 0]))
    if abs(m[0, 0]) < 1e-12:
        a = np.angle(m[1, 0]) - np.angle(-m[0, 1])
        c = 0.0
    elif abs(m[1, 0]) < 1e-12:
        a = 2.0 * np.angle(m[1, 1])
        c = 0.0
    else:
        sum_ac = 2.0 * np.angle(m[1, 1])
        diff_ac = 2.0 * np.angle(m[1, 0])
        a = (sum_ac + diff_ac) / 2.0
        c = (sum_ac - diff_ac) / 2.0
    rec = rotation("z", a) @ rotation("y", b) @ rotation("z", c)
    if np.abs(rec - m).max() > DEFAULT_TOL:
        a += 2.0 * np.pi  # R_z(a + 2 pi) = -R_z(a) flips the cover sign
        rec = rotation("z", a) @ rotation("y", b) @ rotation("z", c)
    if np.abs(rec - m).max() > DEFAULT_TOL:
        raise CavityGatesError("zyz decomposition failed to reconstruct input")
    return float(a), float(b), float(c)


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
