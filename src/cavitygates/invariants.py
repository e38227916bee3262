"""Local invariants of two-qubit gates and recovery of the one-qubit
corrections connecting locally equivalent gates.

Two invariants classify a two-qubit gate M up to one-qubit operations
(Makhlin, Quant. Inf. Proc. 1, 243 (2002)): with M_B = Q^dag M Q the
gate in the magic (Bell-related) basis and m = M_B^T M_B,

    g1 = Tr^2 m / (16 det M),   g2 = (Tr^2 m - Tr m^2) / (4 det M).

In the magic basis every product of one-qubit unitaries becomes a real orthogonal
matrix, which is what makes m's spectrum an equivalence-class fingerprint.
`solve_local_corrections` reads the corrections off the real eigenbases of m and l
in one pass, with the traces that test equivalence also fixing the sign of l;
`are_equivalent` is True exactly where that pass succeeds.  `factor_local` splits
exactly the gates `is_local` accepts.  The corrections and their factors are
continuous in the gates except where eigenvalue clusters of m merge, where a
det -1 polar factor has a repeated smallest singular value, or where Re tr a = 0.

`local_invariants`, `is_local`, `are_equivalent` and `solve_local_corrections`
also take stacks of gates, shape (..., 4, 4), elementwise.  Magic-basis changes
are GEMMs over a stack's rows (`linalg._sandwich`), traces are sums (m is
symmetric: Tr m^2 = sum m_ij^2), and real matrices multiply Re and Im apart.
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
from .linalg import (
    DEFAULT_TOL, _as_stack, _modulus, _sandwich, _unstack, dagger, is_unitary, read_only,
)

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
_MAGIC_DAGGER = read_only(dagger(MAGIC_BASIS))

#: Threshold on |m O - O l| above which a pair is not equivalent: the solver finds no correction.
_MATCH_TOL = 1e-7


class LocalInvariants(NamedTuple):
    """The two-component equivalence-class fingerprint of a 4x4 gate (arrays for a stack)."""

    g1: complex
    g2: complex


def _check_two_qubit_unitary(u) -> np.ndarray:
    m = _as_stack(u)
    if m.shape[-2:] != (4, 4):
        raise DimensionMismatch(f"expected 4x4 gates, got shape {m.shape}")
    if not np.asarray(is_unitary(m)).all():
        raise NotUnitary("gate must be unitary")
    return m


def _magic_symmetric(gates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gb = gate in the magic basis and m = gb^T gb, per gate of a (..., 4, 4) stack."""
    gb = _sandwich(_MAGIC_DAGGER, gates, MAGIC_BASIS)
    return gb, gb.swapaxes(-1, -2) @ gb


def local_invariants(m_gate) -> LocalInvariants:
    """Local invariants (g1, g2) of a two-qubit unitary or of each gate of a stack.

    The division by det M makes the pair insensitive to global phase
    and to determinants away from 1.  For unitary input g2 is real up
    to rounding.
    """
    mb, mm = _magic_symmetric(_check_two_qubit_unitary(m_gate))
    det = np.linalg.det(mb)
    tr = np.einsum("...ii->...", mm)
    # Tr^2 m in real arithmetic: numpy's vectorized complex product rounds
    # unlike its scalar one, and a gate must give the same bits in a stack
    re, im = tr.real, tr.imag
    tr2 = (re * re - im * im) + 1j * (re * im + im * re)
    g1 = tr2 / (16.0 * det)
    g2 = (tr2 - (mm * mm).sum((-2, -1))) / (4.0 * det)
    return LocalInvariants(_unstack(g1, complex), _unstack(g2, complex))


def are_equivalent(a, b):
    """True iff a and b are related by one-qubit operations (and global phase), by the
    solver's test: exactly where `solve_local_corrections` succeeds; a bool array for stacks."""
    _, matched, shape, _ = _match(a, b)
    return _unstack(matched.reshape(shape[:-2]), bool)


def _rearranged(m: np.ndarray) -> np.ndarray:
    """V[2a+a', 2b+b'] = m[2a+b, 2a'+b'] per 4x4 of a stack: A x B goes to rank 1."""
    return m.reshape(*m.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -2).reshape(m.shape)


def is_local(u):
    """True iff u = A x B for some 2x2 unitaries; a bool array for a stack.

    Tested via the singular values of `_rearranged(u)`: a tensor product
    rearranges to a rank-1 matrix, so exactly one singular value is nonzero.
    `factor_local` splits exactly the gates accepted here.
    """
    m = _check_two_qubit_unitary(u)
    s = np.linalg.svd(_rearranged(m), compute_uv=False)
    return _unstack(s[..., 1] < DEFAULT_TOL * s[..., 0], bool)


def factor_local(u):
    """Split u = phase * (a x b) with a, b in SU(2), Re phase >= 0 and
    Re tr a >= 0: continuous in u except where Re tr a = 0.

    Raises:
        NotUnitary: if u is not unitary.
        NotFactorable: if u is not A x B: exactly where `is_local(u)` is False.
    """
    m = _as_stack(u)
    if m.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4x4 gate, got shape {m.shape}")
    if not is_local(m):
        raise NotFactorable("gate does not factor into 2x2 blocks")
    left, s, right = np.linalg.svd(_rearranged(m))  # u = s0 (left_0 x right_0) + O(s1)
    a, b = left[:, 0].reshape(2, 2), right[0].reshape(2, 2)
    root_a, root_b = np.sqrt(np.linalg.det(a)), np.sqrt(np.linalg.det(b))
    a, b, phase = a / root_a, b / root_b, s[0] * root_a * root_b
    if np.trace(a).real < 0:  # (-a, b) with -phase gives the same gate
        a, phase = -a, -phase
    if phase.real < 0:
        b, phase = -b, -phase
    return complex(phase), a, b


@dataclass(frozen=True)
class LocalCorrectionPair:
    """One-qubit sandwich (o, o_prime, phase) with
    phase * o_prime @ M @ o = L for the equivalent gates it was solved
    from.  Both o and o_prime factor as tensor products of single-qubit
    unitaries; |phase| = 1.  Each field is stacked like the gates."""

    o: np.ndarray
    o_prime: np.ndarray
    phase: complex


_DIAG_WEIGHTS = (np.pi, 10.0, 0.40528473456)
_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


def _diagonalize_symmetric_unitary(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real orthogonal P and unit-modulus d with m = P diag(d) P^T, per matrix of a (k, 4, 4) m.

    For symmetric unitary m the real and imaginary parts commute, so a
    weighted sum Re(m)/w + w Im(m) shares its eigenbasis with m; the
    weight breaks accidental degeneracies of the combination and is
    retried on the matrices whose basis failed to diagonalize them.
    """
    p, d = np.empty(m.shape), np.empty_like(m)
    todo = slice(None)  # every matrix, then those the previous weight failed on
    for weight in _DIAG_WEIGHTS:
        mt = m[todo]
        pt = np.linalg.eigh(mt.real / weight + weight * mt.imag)[1]
        re_im = pt.swapaxes(-1, -2) @ np.stack([mt.real, mt.imag]) @ pt  # real products: P is real
        p[todo], d.real[todo], d.imag[todo] = pt, *re_im
        todo = np.abs(d[:, _OFF_DIAGONAL]).max(axis=-1) >= 1e-10
        if not todo.any():
            return np.diagonal(d, axis1=-2, axis2=-1), p
    raise CavityGatesError(
        "failed to diagonalize a symmetric unitary in a real orthogonal basis"
    )


def _match(m_gate, l_gate):
    """The solver's pass: flat verdicts same_g (g within DEFAULT_TOL) and matched (also m O = O l
    within _MATCH_TOL), shape, and (roots, gb, o_b), None if no pair has same_g (no eigh runs)."""
    m_in, l_in = _as_stack(m_gate), _as_stack(l_gate)
    if m_in.shape != l_in.shape:
        raise DimensionMismatch(f"shapes differ: {m_in.shape} vs {l_in.shape}")
    gates = _check_two_qubit_unitary(np.stack([m_in, l_in])).reshape(-1, 4, 4)  # [M; L]
    n = len(gates) // 2
    roots = np.linalg.det(gates) ** 0.25
    gb, sym = _magic_symmetric(gates / roots[:, None, None])  # [mb; lb], [m; l]
    t1, t2 = np.einsum("...ii->...", sym), (sym * sym).sum((-2, -1))  # sym^T = sym
    g = np.stack([t1 * t1 / 16.0, (t1 * t1 - t2) / 4.0])  # g1, g2 of unit-determinant gates
    same_g = (_modulus(g[:, :n] - g[:, n:]) < DEFAULT_TOL).all(axis=0)
    if n and not same_g.any():
        return same_g, same_g, m_in.shape, None
    differ, agree = _modulus(t1[:n] - t1[n:]), _modulus(t1[:n] + t1[n:])
    flip = (differ > DEFAULT_TOL) & (agree < differ)
    i = n + np.flatnonzero(flip)  # re-render those l with root * i
    roots[i] = roots[i] * 1j
    gb[i], sym[i] = _magic_symmetric(gates[i] / roots[i, None, None])
    e, p = _diagonalize_symmetric_unitary(sym)
    # pairs within DEFAULT_TOL may mix: merging eigenvalues d apart moves O_b by about d
    close = _modulus(e[:n, :, None] - e[n:, None, :]) <= DEFAULT_TOL
    u, _, vt = np.linalg.svd(close * (p[:n].swapaxes(-1, -2) @ p[n:]))
    det_p = np.linalg.det(p)  # reflect along the last singular vector to stay in SO(4)
    u[..., -1] *= np.sign(det_p[:n] * det_p[n:] * np.linalg.det(u @ vt))[:, None]
    o_b = p[:n] @ u @ vt @ p[n:].swapaxes(-1, -2)
    re_im = np.stack([sym.real, sym.imag])  # o_b is real: m O - O l in real products
    residual = np.hypot(*(re_im[:, :n] @ o_b - o_b @ re_im[:, n:])).max(axis=(-2, -1))
    return same_g, same_g & (residual <= _MATCH_TOL), m_in.shape, (roots, gb, o_b)


def solve_local_corrections(m_gate, l_gate) -> LocalCorrectionPair:
    """Find one-qubit corrections (O, O') with phase * O' M O = L, for one
    pair of gates or elementwise for two stacks of the same shape.

    Both gates are first normalized to unit determinant (the removed
    scalars are folded into the returned phase).  The symmetric unitary
    matrices m and l built in the magic basis are diagonalized by real
    orthogonal P_m, P_l.  O in the magic basis is P_m X P_l^T, X the polar
    factor of P_m^T P_l on the eigenvalue pairs within DEFAULT_TOL, kept in
    SO(4) by a reflection along its last singular vector: the real O nearest
    the identity with m O = O l, whatever basis eigh gave an eigenspace.  O'
    follows from the defining relation.  O jumps only where eigenvalue clusters
    merge at DEFAULT_TOL, or where det -1 meets a repeated smallest singular value;
    merging two eigenvalues d apart moves the reconstruction by about d.

    The unit-determinant normalization fixes each gate only up to a fourth
    root of unity, which may negate l.  One pass settles the sign: with the
    principal roots, equal g1 leaves Tr l = +-Tr m, and a pair takes root * i
    (-l) only where Tr l is more than DEFAULT_TOL from Tr m and nearer -Tr m.
    Tr m = 0 means a spectrum symmetric under negation (the CNOT class's): +l works.

    Raises:
        NotEquivalent: if the invariants of some pair differ beyond DEFAULT_TOL,
            or m O = O l misses by more than _MATCH_TOL: where `are_equivalent` is False.
    """
    same_g, matched, shape, solved = _match(m_gate, l_gate)
    if not matched.all():
        raise NotEquivalent("gates have different local invariants" if not same_g.all()
                            else "spectra of m and l could not be matched")
    roots, gb, o_b = solved
    n = len(o_b)
    o_prime_b = gb[n:] @ o_b.swapaxes(-1, -2) @ dagger(gb[:n])
    o, o_prime = (_sandwich(MAGIC_BASIS, x, _MAGIC_DAGGER) for x in (o_b, o_prime_b.real))
    phase = _unstack((roots[n:] / roots[:n]).reshape(shape[:-2]), complex)
    return LocalCorrectionPair(o.reshape(shape), o_prime.reshape(shape), phase)
