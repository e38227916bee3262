"""Exception types raised by the library, and the input rules several modules share.

All derive from ValueError so generic callers can catch broadly, while
tests and the CLI can distinguish failure modes.
"""

from math import inf, isfinite

import numpy as np


class CavityGatesError(ValueError):
    """Base class for all library errors."""


class DimensionMismatch(CavityGatesError):
    """Operands have incompatible matrix dimensions."""


class NotHermitian(CavityGatesError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotUnitary(CavityGatesError):
    """A matrix required to be unitary is not, within tolerance."""


class NotEquivalent(CavityGatesError):
    """Two gates are not related by one-qubit operations."""


class NotFactorable(CavityGatesError):
    """A unitary does not factor in the required tensor-product form."""


class DegenerateParams(CavityGatesError):
    """Physical parameters are negative or make a derived quantity ill-defined."""


class IndexOutOfRange(CavityGatesError):
    """A qubit/atom index lies outside the register."""


class InvalidBranch(CavityGatesError):
    """Requested spin-echo timing branch does not yield a gate."""


class InvalidAxis(CavityGatesError):
    """An axis is not one of x, y, z (rotations) or x, y, z, +, - (spin operators)."""


class InvalidForm(CavityGatesError):
    """A Hamiltonian form is not a HamiltonianForm member."""


class InvalidQubits(IndexOutOfRange):
    """Control/target qubit selection is invalid."""


class NonFiniteValue(CavityGatesError):
    """A phase, angle or rate is NaN or infinite."""


def _check_finite(name: str, value: float) -> None:
    """Raise NonFiniteValue if value is NaN or infinite."""
    if not isfinite(value):
        raise NonFiniteValue(f"{name} must be finite, got {value}")


def _check_non_negative(name: str, value: float) -> None:
    """Raise NonFiniteValue unless value is finite, DegenerateParams if it is negative."""
    _check_finite(name, value)
    if value < 0:
        raise DegenerateParams(f"{name} must be >= 0, got {value}")


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not an integer here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_bool(name: str, value) -> None:
    """Raise CavityGatesError unless value is a Python or numpy bool (a string is not)."""
    if not isinstance(value, (bool, np.bool_)):
        raise CavityGatesError(f"{name} must be a bool, got {value!r}")


def _check_qubit(qubit: int, n_atoms: float = inf) -> None:
    """Raise IndexOutOfRange unless qubit is an integer in 1..n_atoms."""
    if not _is_integer(qubit) or not 1 <= qubit <= n_atoms:
        raise IndexOutOfRange(f"qubit must be an integer in 1..{n_atoms}, got {qubit!r}")


def _check_control_target(control: int, target: int, n_qubits: int) -> None:
    """Raise InvalidQubits unless control and target are distinct integers in 1..n_qubits."""
    integers = all(_is_integer(x) for x in (n_qubits, control, target))
    if not (integers and control != target and 1 <= control <= n_qubits and 1 <= target <= n_qubits):
        raise InvalidQubits(f"control, target must be distinct in 1..{n_qubits}: {control}, {target}")
