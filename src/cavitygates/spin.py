"""Collective spin operators, the two-atom Dicke projector, and the
angular-momentum coupling machinery used for three atoms.

Sign conventions (fixed so that the collective evolution of two atoms
reproduces its closed form in the computational basis, with |00> picking
up the phase exp(-2 i phi)):

  * |0> is the ground state and the +1 eigenstate of sigma_z.
  * sigma_+ = |0><1|, sigma_- = |1><0|.
  * S_{x,y,z} carry the customary 1/2; the ladder sums S_+- do not, so
    that S_+ S_- = S^2 - S_z^2 + S_z holds as an operator identity.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, isclose, sqrt

import numpy as np

from . import gates
from .errors import IndexOutOfRange, InvalidQuantumNumbers
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
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_ATOMS:
        raise IndexOutOfRange(f"atom count must be an integer in 1..{MAX_ATOMS}, got {n}")
    return int(n)


def _check_axis(axis: str) -> str:
    if not isinstance(axis, str) or axis not in _SIGMA:
        raise ValueError(f"axis must be one of x, y, z, +, -; got {axis!r}")
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
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise IndexOutOfRange(f"atom index {k} outside register of size {n}")
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


def _as_twice(x, name: str) -> int:
    """Validate a (half-)integer quantum number; return 2x as an int."""
    twice = 2 * x
    if not isclose(twice, round(twice), abs_tol=1e-9):
        raise InvalidQuantumNumbers(f"{name} = {x} is not a half-integer")
    return int(round(twice))


def cg_coefficient(j1, m1, j2, m2, j, m) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m>.

    Condon-Shortley phase convention, evaluated with Racah's closed-form
    sum.  Returns 0 when m != m1 + m2.

    Raises:
        InvalidQuantumNumbers: for non-half-integer inputs, |m| > j, or
            j outside the triangle |j1 - j2| <= j <= j1 + j2.
    """
    tj1, tm1 = _as_twice(j1, "j1"), _as_twice(m1, "m1")
    tj2, tm2 = _as_twice(j2, "j2"), _as_twice(m2, "m2")
    tj, tm = _as_twice(j, "j"), _as_twice(m, "m")
    for tjj, tmm, lbl in ((tj1, tm1, "1"), (tj2, tm2, "2"), (tj, tm, "")):
        if tjj < 0:
            raise InvalidQuantumNumbers(f"j{lbl} must be >= 0")
        if abs(tmm) > tjj or (tjj - tmm) % 2 != 0:
            raise InvalidQuantumNumbers(f"m{lbl} must step by 1 from -j{lbl} to j{lbl}")
    if not abs(tj1 - tj2) <= tj <= tj1 + tj2 or (tj1 + tj2 - tj) % 2 != 0:
        raise InvalidQuantumNumbers(f"j = {j} violates the triangle rule for ({j1}, {j2})")
    if tm != tm1 + tm2:
        return 0.0

    def f(twice: int) -> int:
        return factorial(twice // 2)

    pref = (
        (tj + 1)
        * f(tj + tj1 - tj2) * f(tj - tj1 + tj2) * f(tj1 + tj2 - tj)
        / f(tj1 + tj2 + tj + 2)
        * f(tj + tm) * f(tj - tm)
        * f(tj1 - tm1) * f(tj1 + tm1) * f(tj2 - tm2) * f(tj2 + tm2)
    )
    vmin = max(0, (tj2 - tj - tm1) // 2, (tj1 + tm2 - tj) // 2)
    vmax = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = 0.0
    for v in range(vmin, vmax + 1):
        den = (
            factorial(v)
            * f(tj1 + tj2 - tj - 2 * v)
            * f(tj1 - tm1 - 2 * v)
            * f(tj2 + tm2 - 2 * v)
            * f(tj - tj2 + tm1 + 2 * v)
            * f(tj - tj1 - tm2 + 2 * v)
        )
        total += (-1) ** v / den
    return sqrt(pref) * total


# Row ordering of the three-atom coupled basis: atom 1 (m1 = +1/2 then
# -1/2) times the atoms-(2,3) triplet with m descending, triplet block
# before the singlet block.
_COUPLED_ROWS = (
    (+0.5, 1, +1), (+0.5, 1, 0), (+0.5, 1, -1),
    (-0.5, 1, +1), (-0.5, 1, 0), (-0.5, 1, -1),
    (+0.5, 0, 0), (-0.5, 0, 0),
)


def coupled_basis_transform_3() -> np.ndarray:
    """Unitary mapping the three-atom computational basis to the product
    basis (atom 1 spin-1/2) x (atoms 2, 3 coupled to j23 in {1, 0}).

    Rows follow `_COUPLED_ROWS`; columns are computational states |b1 b2 b3>.
    Applied to a state vector it returns coupled-basis amplitudes, and
    W A W^dagger block-diagonalizes any operator that conserves j23 (for
    example S^2 splits into a 6x6 triplet and 2x2 singlet sector).
    """
    def bit_m(b: int) -> float:
        return +0.5 if b == 0 else -0.5

    w = np.zeros((8, 8), dtype=complex)
    for row, (m1, j23, m23) in enumerate(_COUPLED_ROWS):
        b1 = 0 if m1 > 0 else 1
        for b2 in (0, 1):
            for b3 in (0, 1):
                coeff = cg_coefficient(0.5, bit_m(b2), 0.5, bit_m(b3), j23, m23)
                if coeff != 0.0:
                    w[row, (b1 << 2) | (b2 << 1) | b3] = coeff
    return w
