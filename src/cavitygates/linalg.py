"""Dense complex linear algebra for few-qubit operators (dimension <= 8).

Conventions:
  * Operators are square complex128 ndarrays.  `dagger`, `kron`, `is_unitary`,
    `hermitian_spectrum`, `expm_hermitian` and `phase_distance` also take stacks
    (..., d, d), elementwise; `kron` and `phase_distance` raise
    DimensionMismatch for stacks that do not broadcast.
  * numpy's stacked @ makes one small product per matrix, so `_sandwich` applies
    fixed factors to a whole stack as GEMMs over its rows, and traces are sums.
  * Qubit ordering is big-endian: in a tensor product the first factor is
    qubit 1 and carries the most significant bit, so the two-qubit basis
    is ordered |00>, |01>, |10>, |11>.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

#: Tolerance of the Hermiticity, unitarity, local-equivalence and factorization checks.
DEFAULT_TOL = 1e-9


def _as_stack(a) -> np.ndarray:
    """Coerce to a square complex matrix or a stack of them, shape (..., d, d)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    return m


def _unstack(x, kind):
    """x as a Python `kind` if it is 0-d (one matrix went in), else as is."""
    return kind(x) if np.ndim(x) == 0 else x


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| rounded as abs() of one complex is (numpy's vectorized abs may differ)."""
    return np.hypot(z.real, z.imag)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes, summed as np.linalg.norm sums one matrix."""
    # the length in full, not -1, so that an empty stack reshapes
    re, im = (p.reshape(*x.shape[:-2], 1, x.shape[-2] * x.shape[-1]) for p in (x.real, x.imag))
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def _sandwich(left: np.ndarray, m: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ m @ right over a stack m (..., d, d) as two GEMMs on its rows: m right, (.)^T left^T."""
    mr = (m.reshape(-1, right.shape[0]) @ right).reshape(m.shape).swapaxes(-1, -2)
    return (mr.reshape(-1, left.shape[1]) @ left.T).reshape(m.shape).swapaxes(-1, -2)


def dagger(a) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return _as_stack(a).conj().swapaxes(-1, -2)


def kron(first, *rest) -> np.ndarray:
    """Kronecker product of one or more factors, as a fresh array; the
    leftmost factor is the most significant subsystem.  Stacks of factors
    broadcast over their leading axes.

    A left fold of broadcast outer products, entry for entry the same
    products as chained np.kron (so bit-identical to it) without its
    generic-rank overhead.
    """
    out = _as_stack(first)
    if not rest:
        return out.copy()
    for factor in rest:
        b = _as_stack(factor)
        d = out.shape[-1] * b.shape[-1]
        try:
            prod = out[..., None, :, None] * b[..., None, :, None, :]
        except ValueError:
            raise DimensionMismatch(f"stacks {out.shape} and {b.shape} do not broadcast") from None
        out = prod.reshape(prod.shape[:-4] + (d, d))
    return out


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark a (cached, shared) array read-only and return it."""
    a.flags.writeable = False
    return a


def is_unitary(a):
    """True if ||a^dagger a - 1||_F < DEFAULT_TOL; a bool array for a stack."""
    m = _as_stack(a)
    return _unstack(_frobenius(dagger(m) @ m - np.eye(m.shape[-1])) < DEFAULT_TOL, bool)


def hermitian_spectrum(h) -> tuple[np.ndarray, ...]:
    """Eigenvalues w, unitary eigenvectors v and v^dagger of Hermitian h = v diag(w) v^dagger.

    Raises:
        NotHermitian: if ||h - h^dagger||_F >= DEFAULT_TOL (for any matrix of a stack).
    """
    m = _as_stack(h)
    if not (_frobenius(m - dagger(m)) < DEFAULT_TOL).all():
        raise NotHermitian("generator of a unitary evolution must be Hermitian")
    w, v = np.linalg.eigh(m)
    return w, v, dagger(v)


def expm_hermitian(h, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * h) for Hermitian h (or a stack), via eigendecomposition, which
    keeps it unitary to machine precision at these sizes, unlike a truncated series.

    Raises:
        NotHermitian: if h (any matrix of a stack) fails the Hermiticity check.
    """
    w, v, vh = hermitian_spectrum(h)
    return (v * np.exp(-1j * scale * w)[..., None, :]) @ vh


def phase_distance(u, v):
    """min over theta of ||u - e^{i theta} v||_F; an array for stacks.

    The minimizing phase is theta = -arg Tr(u^dagger v); the norm is then
    evaluated directly at that phase rather than through the closed form
    sqrt(2 d - 2 |Tr(u^dagger v)|), whose cancellation error floors near
    sqrt(machine eps) and would mask agreement better than ~1e-8.

    Zero (to machine precision) iff u = e^{i theta} v exactly, and exactly
    0.0 for u = v: Im Tr(u^dagger v) is the difference of two separately
    rounded real sums, which cancel exactly there (a complex product may
    round u_re u_im - u_im u_re through a fused multiply-add to nonzero).
    """
    a, b = _as_stack(u), _as_stack(v)
    try:  # Tr(a^dagger b) as elementwise sums, which broadcast more than @ would
        if a.shape[-2:] != b.shape[-2:]:
            raise ValueError
        im = (a.real * b.imag).sum((-2, -1)) - (a.imag * b.real).sum((-2, -1))
        theta = -np.arctan2(im, (a.conj() * b).real.sum((-2, -1)))
    except ValueError:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} do not match") from None
    return _unstack(_frobenius(a - np.exp(1j * theta)[..., None, None] * b), float)
