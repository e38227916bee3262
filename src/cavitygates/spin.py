"""Collective spin operators, the two-atom Dicke projector, and the
coupled basis that splits atom 1 off a three-atom register.

Sign conventions (fixed so that the collective evolution of two atoms
reproduces its closed form in the computational basis, with |00> picking
up the phase exp(-2 i phi)):

  * |0> is the excited state and the +1 eigenstate of sigma_z: sigma_+ = |0><1|
    absorbs a photon in the coupling g (a S_+ + a^dagger S_-); sigma_- = |1><0|.
  * S_{x,y,z} carry the customary 1/2; the ladder sums S_+- do not, so
    that S_+ S_- = S^2 - S_z^2 + S_z holds as an operator identity.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import gates
from .errors import IndexOutOfRange, InvalidAxis, _check_qubit, _is_integer
from .linalg import kron, read_only

_SIGMA = {
    "x": gates.SIGMA_X,
    "y": gates.SIGMA_Y,
    "z": gates.SIGMA_Z,
    "+": gates.SIGMA_PLUS,
    "-": gates.SIGMA_MINUS,
}

MAX_ATOMS = 3


def _check_atoms(n: int) -> int:
    if not _is_integer(n) or not 1 <= n <= MAX_ATOMS:
        raise IndexOutOfRange(f"atom count must be an integer in 1..{MAX_ATOMS}, got {n}")
    return int(n)


def _check_axis(axis: str) -> str:
    if not isinstance(axis, str) or axis not in _SIGMA:
        raise InvalidAxis(f"axis must be one of x, y, z, +, -; got {axis!r}")
    return axis


# The operators below are fixed matrices, built once per argument tuple
# and shared read-only.  The public functions validate their arguments
# first, so the caches only ever see canonical (str, int) keys.


def pauli(axis: str, k: int, n: int) -> np.ndarray:
    """Pauli operator on atom k of an n-atom register (1-based k).

    Returns 1 x ... x sigma_axis x ... x 1 with sigma in slot k, as a
    shared read-only array.
    """
    n = _check_atoms(n)
    axis = _check_axis(axis)
    _check_qubit(k, n)
    return _pauli(axis, int(k), n)


@lru_cache(maxsize=None)
def _pauli(axis: str, k: int, n: int) -> np.ndarray:
    return read_only(
        kron(*(_SIGMA[axis] if slot == k else np.eye(2) for slot in range(1, n + 1)))
    )


def collective_op(axis: str, n: int) -> np.ndarray:
    """Collective spin operator, as a shared read-only array.

    S_{x,y,z} = (1/2) sum_k sigma^{(k)};  S_+- = sum_k sigma_+-^{(k)}
    (no 1/2 on the ladder operators, see module docstring).
    """
    n = _check_atoms(n)
    return _collective_op(_check_axis(axis), n)


@lru_cache(maxsize=None)
def _collective_op(axis: str, n: int) -> np.ndarray:
    total = sum(_pauli(axis, k, n) for k in range(1, n + 1))
    if axis in "xyz":
        total = total / 2
    return read_only(total)


def s_squared(n: int) -> np.ndarray:
    """Total angular momentum square S_x^2 + S_y^2 + S_z^2 (shared, read-only)."""
    return _s_squared(_check_atoms(n))


@lru_cache(maxsize=None)
def _s_squared(n: int) -> np.ndarray:
    return read_only(sum(_collective_op(a, n) @ _collective_op(a, n) for a in "xyz"))


def dicke_projector_g() -> np.ndarray:
    """The two-atom projector G = [S^2 - (S_z^2 - S_z)] / 2.

    Projects onto |00> and the symmetric S_z = 0 state; satisfies
    G^2 = G, and the two-atom collective Hamiltonian without thermal
    terms is 2 (hbar eta) G.
    """
    sz = collective_op("z", 2)
    return (s_squared(2) - (sz @ sz - sz)) / 2


# Condon-Shortley coupling of two spin-1/2 (atoms 2 and 3): rows
# |1,+1>, |1,0>, |1,-1>, |0,0>; columns |00>, |01>, |10>, |11>.
_PAIR_COUPLING = read_only(np.array([[1, 0, 0, 0],
                                     [0, np.sqrt(0.5), np.sqrt(0.5), 0],
                                     [0, 0, 0, 1],
                                     [0, np.sqrt(0.5), -np.sqrt(0.5), 0]], dtype=complex))

# Rows of 1 x _PAIR_COUPLING with the triplet block first: (m1, j23) =
# (+1/2, 1) for m23 = +1, 0, -1, then (-1/2, 1), then (+1/2, 0), (-1/2, 0).
_ROW_ORDER = [0, 1, 2, 4, 5, 6, 3, 7]


def coupled_basis_transform_3() -> np.ndarray:
    """Unitary mapping the three-atom computational basis to the product
    basis (atom 1 spin-1/2) x (atoms 2, 3 coupled to j23 in {1, 0}).

    Rows follow `_ROW_ORDER`; columns are computational states |b1 b2 b3>.
    Applied to a state vector it returns coupled-basis amplitudes, and
    W A W^dagger block-diagonalizes any operator that conserves j23 (for
    example S^2 splits into a 6x6 triplet and 2x2 singlet sector).
    """
    return kron(np.eye(2), _PAIR_COUPLING)[_ROW_ORDER]
