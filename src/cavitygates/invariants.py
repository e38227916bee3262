"""Local invariants of two-qubit gates and recovery of the one-qubit
corrections connecting locally equivalent gates.

Two invariants classify a two-qubit gate M up to one-qubit operations
(Makhlin, Quant. Inf. Proc. 1, 243 (2002)): with M_B = Q^dag M Q the
gate in the magic (Bell-related) basis and m = M_B^T M_B,

    g1 = Tr^2 m / (16 det M),   g2 = (Tr^2 m - Tr m^2) / (4 det M).

In the magic basis every product of one-qubit unitaries becomes a real
orthogonal matrix, which is what makes m's spectrum an equivalence-class
fingerprint and lets the corrections be read off from the real
eigenbases of m and l.

No function here takes a tolerance: every check runs at the fixed
`linalg.DEFAULT_TOL`, and the solver's own thresholds are fixed too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CavityGatesError,
    DimensionMismatch,
    NotEquivalent,
    NotFactorable,
    NotUnitary,
)
from .linalg import DEFAULT_TOL, as_operator, dagger, is_unitary, read_only

#: Magic-basis transformation, read-only: columns are the entangled basis states
#: (|00>+|11>)/sqrt2, (i|01>+i|10>)/sqrt2, (|01>-|10>)/sqrt2,
#: (i|00>-i|11>)/sqrt2.  Any other valid choice differs by a real
#: orthogonal right factor and yields identical invariants; this one is
#: pinned for reproducibility and the defining property (one-qubit gates
#: become real orthogonal) is what the tests check.
MAGIC_BASIS = read_only(np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2))

#: Eigenvalue-matching (and O'-realness) threshold of solve_local_corrections.
_MATCH_TOL = 1e-7


class LocalInvariants(NamedTuple):
    """The two-component equivalence-class fingerprint of a 4x4 gate."""

    g1: complex
    g2: complex


def _check_two_qubit_unitary(u) -> np.ndarray:
    m = as_operator(u)
    if m.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4x4 gate, got shape {m.shape}")
    if not is_unitary(m):
        raise NotUnitary("gate must be unitary")
    return m


def local_invariants(m_gate) -> LocalInvariants:
    """Local invariants (g1, g2) of a two-qubit unitary.

    The division by det M makes the pair insensitive to global phase
    and to determinants away from 1.  For unitary input g2 is real up
    to rounding.
    """
    m = _check_two_qubit_unitary(m_gate)
    mb = dagger(MAGIC_BASIS) @ m @ MAGIC_BASIS
    det = np.linalg.det(mb)
    mm = mb.T @ mb
    tr = np.trace(mm)
    g1 = tr ** 2 / (16.0 * det)
    g2 = (tr ** 2 - np.trace(mm @ mm)) / (4.0 * det)
    return LocalInvariants(complex(g1), complex(g2))


def are_equivalent(a, b) -> bool:
    """True iff a and b are related by one-qubit operations (and global
    phase), i.e. iff both invariant components agree within DEFAULT_TOL."""
    ia = local_invariants(a)
    ib = local_invariants(b)
    return bool(abs(ia.g1 - ib.g1) < DEFAULT_TOL and abs(ia.g2 - ib.g2) < DEFAULT_TOL)


def is_local(u) -> bool:
    """True iff u = A x B for some 2x2 unitaries.

    Tested via the singular values of the block rearrangement
    V[2a+a', 2b+b'] = u[2a+b, 2a'+b']: a tensor product rearranges to a
    rank-1 matrix, so exactly one singular value is nonzero.
    """
    m = _check_two_qubit_unitary(u)
    v = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(v, compute_uv=False)
    return bool(s[1] < DEFAULT_TOL * s[0])


def factor_local(u):
    """Split u = phase * (a x b) with a, b in SU(2).

    Raises:
        NotFactorable: if u is not a tensor product of 2x2 blocks.
    """
    m = as_operator(u)
    if m.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4x4 gate, got shape {m.shape}")
    # Anchor on the largest entry, then read off both factors from the
    # rows/columns through it.
    i0, j0 = max(
        ((i, j) for i in range(4) for j in range(4)), key=lambda t: abs(m[t])
    )
    a = np.zeros((2, 2), dtype=complex)
    b = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            a[(i0 >> 1) ^ i, (j0 >> 1) ^ j] = m[i0 ^ (i << 1), j0 ^ (j << 1)]
            b[(i0 & 1) ^ i, (j0 & 1) ^ j] = m[i0 ^ i, j0 ^ j]
    det_a, det_b = np.linalg.det(a), np.linalg.det(b)
    if abs(det_a) < DEFAULT_TOL or abs(det_b) < DEFAULT_TOL:
        raise NotFactorable("gate does not factor into 2x2 blocks")
    a = a / np.sqrt(det_a)
    b = b / np.sqrt(det_b)
    phase = m[i0, j0] / (a[i0 >> 1, j0 >> 1] * b[i0 & 1, j0 & 1])
    if phase.real < 0:
        a = -a
        phase = -phase
    if np.abs(m - phase * np.kron(a, b)).max() > DEFAULT_TOL:
        raise NotFactorable("gate does not factor into 2x2 blocks")
    return complex(phase), a, b


@dataclass(frozen=True)
class LocalCorrectionPair:
    """One-qubit sandwich (o, o_prime, phase) with
    phase * o_prime @ M @ o = L for the equivalent gates it was solved
    from.  Both o and o_prime factor as tensor products of single-qubit
    unitaries; |phase| = 1."""

    o: np.ndarray
    o_prime: np.ndarray
    phase: complex


_DIAG_WEIGHTS = (np.pi, 10.0, 0.40528473456)


def _diagonalize_symmetric_unitary(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real orthogonal P and unit-modulus eigenvalues d with m = P diag(d) P^T.

    For symmetric unitary m the real and imaginary parts commute, so a
    weighted sum Re(m)/w + w Im(m) shares its eigenbasis with m; the
    weight breaks accidental degeneracies of the combination and is
    retried if the basis fails to diagonalize m.
    """
    for weight in _DIAG_WEIGHTS:
        _, p = np.linalg.eigh(m.real / weight + weight * m.imag)
        d = p.T @ m @ p
        if np.abs(d - np.diag(np.diag(d))).max() < 1e-10:
            return np.diag(d).copy(), p
    raise CavityGatesError(
        "failed to diagonalize a symmetric unitary in a real orthogonal basis"
    )


def _match_spectra(em: np.ndarray, el: np.ndarray):
    """Greedy nearest-eigenvalue pairing of el against em (sorted order).

    Returns the permutation of el matching em, or None if some pair is
    further apart than _MATCH_TOL (spectra differ: not equivalent).  Greedy
    matching is immune to the branch cut that a phase sort would hit at
    eigenvalues near -1.
    """
    used = [False] * len(el)
    perm = []
    for lam in em:
        dist, j = min(
            (abs(el[j] - lam), j) for j in range(len(el)) if not used[j]
        )
        if dist > _MATCH_TOL:
            return None
        used[j] = True
        perm.append(j)
    return perm


def solve_local_corrections(m_gate, l_gate) -> LocalCorrectionPair:
    """Find one-qubit corrections (O, O') with phase * O' M O = L.

    Both gates are first normalized to unit determinant (the removed
    scalars are folded into the returned phase).  The symmetric unitary
    matrices m and l built in the magic basis are diagonalized by real
    special-orthogonal matrices; matching their spectra yields O in the
    magic basis, and O' follows from the defining relation.  Degenerate
    eigenvalues need no special handling: any orthonormal real basis of
    a degenerate eigenspace produces a valid correction pair.

    The unit-determinant normalization fixes each gate only up to a
    fourth root of unity, which flips the sign of its m matrix; both
    sign branches are tried.

    Raises:
        NotEquivalent: if the invariants (hence spectra) differ beyond
            tolerance, so no correction pair exists.
    """
    m_in = _check_two_qubit_unitary(m_gate)
    l_in = _check_two_qubit_unitary(l_gate)
    if not are_equivalent(m_in, l_in):
        raise NotEquivalent("gates have different local invariants")

    q = MAGIC_BASIS
    det_root_m = np.linalg.det(m_in) ** 0.25
    det_root_l = np.linalg.det(l_in) ** 0.25
    mb = dagger(q) @ (m_in / det_root_m) @ q
    mm = mb.T @ mb
    em, pm = _diagonalize_symmetric_unitary(mm)
    order = np.argsort(np.angle(em))
    em, pm = em[order], pm[:, order]
    if np.linalg.det(pm) < 0:
        pm = pm.copy()
        pm[:, 0] = -pm[:, 0]

    for branch in (1.0 + 0j, 1j):
        lb = dagger(q) @ (l_in / (det_root_l * branch)) @ q
        ll = lb.T @ lb
        el, pl = _diagonalize_symmetric_unitary(ll)
        perm = _match_spectra(em, el)
        if perm is None:
            continue
        pl = pl[:, perm]
        if np.linalg.det(pl) < 0:
            pl = pl.copy()
            pl[:, 0] = -pl[:, 0]
        o_b = pm @ pl.T
        o_prime_b = lb @ o_b.T @ dagger(mb)
        if np.abs(o_prime_b.imag).max() > _MATCH_TOL:
            continue  # wrong sign branch: O' came out non-real
        o = q @ o_b @ dagger(q)
        o_prime = q @ o_prime_b.real @ dagger(q)
        phase = complex(det_root_l * branch / det_root_m)
        return LocalCorrectionPair(o=o, o_prime=o_prime, phase=phase)
    raise NotEquivalent("spectra of m and l could not be matched")
