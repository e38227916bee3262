"""Dense complex linear algebra for few-qubit operators (dimension <= 8).

Conventions:
  * Operators are square complex128 ndarrays.
  * Qubit ordering is big-endian: in a tensor product the first factor is
    qubit 1 and carries the most significant bit, so the two-qubit basis
    is ordered |00>, |01>, |10>, |11>.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

DEFAULT_TOL = 1e-9


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_operator(a).conj().T


def kron(first, *rest) -> np.ndarray:
    """Kronecker product of one or more factors, as a fresh array; the
    leftmost factor is the most significant subsystem.

    A left fold of broadcast outer products, entry for entry the same
    products as chained np.kron (so bit-identical to it) without its
    generic-rank overhead.
    """
    out = as_operator(first)
    if not rest:
        return out.copy()
    for factor in rest:
        b = as_operator(factor)
        rows, cols = out.shape[0] * b.shape[0], out.shape[1] * b.shape[1]
        out = (out[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)
    return out


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark a (cached, shared) array read-only and return it."""
    a.flags.writeable = False
    return a


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    """True if ||a - a^dagger||_F < tol."""
    m = as_operator(a)
    return bool(np.linalg.norm(m - m.conj().T) < tol)


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    """True if ||a^dagger a - 1||_F < tol."""
    m = as_operator(a)
    return bool(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) < tol)


def hermitian_spectrum(h, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, ...]:
    """Eigenvalues w, unitary eigenvectors v and v^dagger of Hermitian h = v diag(w) v^dagger.

    Raises:
        NotHermitian: if h fails the Hermiticity check.
    """
    m = as_operator(h)
    if not is_hermitian(m, tol):
        raise NotHermitian("generator of a unitary evolution must be Hermitian")
    w, v = np.linalg.eigh(m)
    return w, v, v.conj().T


def expm_spectral(w: np.ndarray, v: np.ndarray, vh: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * h) from the spectrum (w, v, v^dagger) of a Hermitian h."""
    return (v * np.exp(-1j * scale * w)) @ vh


def expm_hermitian(h, scale: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """exp(-i * scale * h) for Hermitian h, via eigendecomposition.

    Diagonalizing keeps the result unitary to machine precision at these
    matrix sizes, unlike a truncated series.

    Raises:
        NotHermitian: if h fails the Hermiticity check.
    """
    return expm_spectral(*hermitian_spectrum(h, tol), scale)


def phase_distance(u, v) -> float:
    """min over theta of ||u - e^{i theta} v||_F.

    The minimizing phase is theta = -arg Tr(u^dagger v); the norm is then
    evaluated directly at that phase rather than through the closed form
    sqrt(2 d - 2 |Tr(u^dagger v)|), whose cancellation error floors near
    sqrt(machine eps) and would mask agreement better than ~1e-8.

    Zero (to machine precision) iff u = e^{i theta} v exactly.
    """
    a = as_operator(u)
    b = as_operator(v)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    overlap = np.trace(a.conj().T @ b)
    theta = -np.angle(overlap) if overlap != 0 else 0.0
    return float(np.linalg.norm(a - np.exp(1j * theta) * b))
