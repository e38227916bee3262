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
    """Physical parameters make a derived quantity ill-defined."""


class InvalidQuantumNumbers(CavityGatesError):
    """Angular-momentum quantum numbers violate their constraints."""


class IndexOutOfRange(CavityGatesError):
    """A qubit/atom index lies outside the register."""


class InvalidBranch(CavityGatesError):
    """Requested spin-echo timing branch does not yield a gate."""


class InvalidAxis(CavityGatesError):
    """A rotation axis is not one of x, y, z."""


class InvalidForm(CavityGatesError):
    """A Hamiltonian form is not a HamiltonianForm member."""


class InvalidQubits(CavityGatesError):
    """Control/target qubit selection is invalid."""


class NonFiniteValue(CavityGatesError):
    """A phase, angle or rate is NaN or infinite."""


def _check_finite(name: str, value: float) -> None:
    """Raise NonFiniteValue if value is NaN or infinite."""
    if not isfinite(value):
        raise NonFiniteValue(f"{name} must be finite, got {value}")


def _check_qubit(qubit: int, n_atoms: float = inf) -> None:
    """Raise IndexOutOfRange unless qubit is an integer in 1..n_atoms."""
    if not isinstance(qubit, (int, np.integer)) or not 1 <= qubit <= n_atoms:
        raise IndexOutOfRange(f"qubit must be an integer in 1..{n_atoms}, got {qubit!r}")
