"""Canonical gate matrices and single-qubit rotations.

All matrices follow the big-endian qubit ordering of `linalg` (qubit 1 =
most significant bit).  Rotations use the standard SU(2) convention

    R_a(theta) = exp(-i theta sigma_a / 2),   a in {x, y, z},

so R_a(theta + 2 pi) = -R_a(theta).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidAxis, _check_finite, _check_qubit
from .linalg import as_operator, expm_hermitian, expm_spectral, hermitian_spectrum, kron, read_only

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # |0><1|
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|

#: Read-only (w, v, v^dagger) of each Pauli matrix; eigh is deterministic, so
#: rendering from it equals a fresh expm_hermitian(sigma, theta / 2) bit for bit.
_PAULI_SPECTRA = {
    axis: tuple(read_only(a) for a in hermitian_spectrum(sigma))
    for axis, sigma in (("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z))
}


def _check_rotation(axis: str, theta: float) -> None:
    """Raise InvalidAxis unless axis is x, y or z, NonFiniteValue unless theta is finite."""
    if not isinstance(axis, str) or axis not in _PAULI_SPECTRA:
        raise InvalidAxis(f"rotation axis must be one of x, y, z; got {axis!r}")
    _check_finite("rotation angle", theta)


def rotation(axis: str, theta: float) -> np.ndarray:
    """Single-qubit rotation exp(-i theta sigma_axis / 2), as a fresh array;
    raises as `_check_rotation` does."""
    _check_rotation(axis, theta)
    return expm_spectral(*_PAULI_SPECTRA[axis], theta / 2)


def controlled_not(n_qubits: int, control: int, target: int) -> np.ndarray:
    """CNOT on an n-qubit register as an explicit permutation matrix.

    Built directly from the truth table (flip the target bit when the
    control bit is 1), so it is independent of any synthesis machinery
    and serves as a reference for it.  Indices are 1-based.
    """
    if control == target:
        raise IndexOutOfRange("control and target must differ")
    for q in (control, target):
        _check_qubit(q, n_qubits)
    dim = 2 ** n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        cbit = (col >> (n_qubits - control)) & 1
        row = col ^ (cbit << (n_qubits - target))
        mat[row, col] = 1.0
    return mat


def cnot_gate() -> np.ndarray:
    """Two-qubit CNOT, control = qubit 1, target = qubit 2."""
    return controlled_not(2, 1, 2)


def swap_gate() -> np.ndarray:
    return np.array([[1, 0, 0, 0],
                     [0, 0, 1, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1]], dtype=complex)


def toffoli_gate() -> np.ndarray:
    """Three-qubit Toffoli, controls = qubits 1 and 2, target = qubit 3."""
    dim = 8
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        row = col ^ 1 if (col >> 1) & 1 and (col >> 2) & 1 else col
        mat[row, col] = 1.0
    return mat


def u23_gate() -> np.ndarray:
    """The residual two-qubit gate exp(-i pi/3 sigma_z x sigma_z) left on
    atoms 2, 3 after spin-echo isolation of the three-atom evolution."""
    return expm_hermitian(kron(SIGMA_Z, SIGMA_Z), np.pi / 3)


def zyz_angles(u) -> tuple[float, float, float]:
    """Euler angles (a, b, c) with u = R_z(a) R_y(b) R_z(c), for u in SU(2).

    The decomposition is exact (no leftover phase): the double cover is
    handled by shifting a by 2 pi when the reconstructed sign is flipped.
    """
    m = as_operator(u)
    if m.shape != (2, 2):
        raise DimensionMismatch("zyz_angles expects a 2x2 matrix")
    if abs(np.linalg.det(m) - 1.0) > 1e-9:
        raise ValueError("zyz_angles expects det = 1 (SU(2)) input")
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
    if np.abs(rec - m).max() > 1e-9:
        a += 2.0 * np.pi  # R_z(a + 2 pi) = -R_z(a) flips the cover sign
        rec = rotation("z", a) @ rotation("y", b) @ rotation("z", c)
    if np.abs(rec - m).max() > 1e-9:
        raise ValueError("zyz decomposition failed to reconstruct input")
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
        raise ValueError(
            f"unknown gate {name!r}; known: {', '.join(sorted(NAMED_GATES))}"
        ) from None
