"""Effective collective Hamiltonian, its unitary evolution, and the
thermal (mean-photon-number) compensation rotations.

The dispersive interaction of N trapped two-level atoms with a lossy
cavity mode reduces to

    H / (hbar eta) = S_+ S_- + 2 nbar S_z                (ladder form)
                   = S^2 - S_z^2 + (2 nbar + 1) S_z      (Casimir form)

with coupling factor eta = g^2 Delta / (kappa^2 + Delta^2).  The two
forms are equal as operators; they differ in what counts as the "linear"
S_z term, so dropping it leaves S_+ S_- in one case and S^2 - S_z^2 in
the other.  Because S_z commutes with everything else in H, the linear
term amounts to a z-rotation of every qubit and can be cancelled at any
point of the evolution window by R_z(-2 nbar phi) (ladder) or
R_z(-(2 nbar + 1) phi) (Casimir) per qubit, where phi = eta t.

All evolution APIs take the dimensionless phase phi = eta t; physical
seconds enter only through `coupling_eta` for reporting.

`evolve` is the ideal evolution under the linear-free Hamiltonian, and
so also the compensated one for every nbar; all gate sequences use it.
`thermal_evolve` keeps the linear term, as the raw reference the
compensation layer must undo.  The linear-free Hamiltonian is
diagonalized once per (atom count, form); every pulse is then
V e^{-i phi Lambda} V^dagger, and since S_z is diagonal the thermal
term only scales its rows by phases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .errors import DegenerateParams, InvalidForm, _check_finite
from .gates import rotation
from .linalg import expm_spectral, hermitian_spectrum, kron, read_only
from .spin import _check_atoms, collective_op, s_squared


class HamiltonianForm(enum.Enum):
    """Which writing of the effective Hamiltonian a computation uses."""

    LADDER = "ladder"    # S+ S-  (+ 2 nbar Sz)
    CASIMIR = "casimir"  # S^2 - Sz^2  (+ (2 nbar + 1) Sz)


def _check_form(form: HamiltonianForm) -> None:
    """Raise InvalidForm unless form is a HamiltonianForm member."""
    if not isinstance(form, HamiltonianForm):
        raise InvalidForm(f"unknown Hamiltonian form {form!r}")


@dataclass(frozen=True)
class CavityParams:
    """Physical cavity/atom parameters, all rates in rad/s.

    delta is the atom-cavity detuning omega_0 - omega; its sign sets the
    sign of eta.  nbar is the mean thermal photon number of the mode.
    g, delta, kappa and nbar must be finite (NonFiniteValue otherwise).
    """

    g: float
    delta: float
    kappa: float
    nbar: float = 0.0
    n_atoms: int = 2

    def __post_init__(self):
        for name in ("g", "delta", "kappa", "nbar"):
            _check_finite(name, getattr(self, name))
        if self.g < 0:
            raise ValueError("dipole coupling g must be >= 0")
        if self.kappa < 0:
            raise ValueError("cavity loss rate kappa must be >= 0")
        if self.nbar < 0:
            raise ValueError("mean photon number nbar must be >= 0")
        _check_atoms(self.n_atoms)


def coupling_eta(params: CavityParams) -> float:
    """Coupling factor eta = g^2 Delta / (kappa^2 + Delta^2), in rad/s."""
    denom = params.kappa ** 2 + params.delta ** 2
    if denom == 0:
        raise DegenerateParams("eta undefined for kappa = delta = 0")
    return params.g ** 2 * params.delta / denom


#: validity_ratio above this is reported as a warning (a reporting
#: default; the underlying condition is only asymptotic).
VALIDITY_WARN_THRESHOLD = 0.1


def validity_ratio(params: CavityParams) -> float:
    """g sqrt(N) / sqrt(Delta^2 + kappa^2).

    The effective Hamiltonian holds in the dispersive limit where this
    ratio is small.
    """
    denom = sqrt(params.kappa ** 2 + params.delta ** 2)
    if denom == 0:
        raise DegenerateParams("validity ratio undefined for kappa = delta = 0")
    return params.g * sqrt(params.n_atoms) / denom


def _linear_coefficient(form: HamiltonianForm, nbar: float) -> float:
    """Coefficient c of the form-specific linear term c S_z:
    2 nbar (ladder) or 2 nbar + 1 (Casimir); nbar must be finite."""
    _check_form(form)
    _check_finite("nbar", nbar)
    return 2.0 * nbar if form is HamiltonianForm.LADDER else 2.0 * nbar + 1.0


def build_hamiltonian(
    n: int,
    form: HamiltonianForm,
    nbar: float = 0.0,
    include_linear: bool = False,
) -> np.ndarray:
    """Dimensionless Hamiltonian H / (hbar eta) for n atoms.

    With include_linear=False the form-specific linear S_z term is
    dropped: LADDER gives S+ S-, CASIMIR gives S^2 - S_z^2.  With
    include_linear=True, nbar must be finite (NonFiniteValue).
    """
    n = _check_atoms(n)
    _check_form(form)
    sz = collective_op("z", n)
    if form is HamiltonianForm.LADDER:
        h = collective_op("+", n) @ collective_op("-", n)
    else:
        h = s_squared(n) - sz @ sz
    if include_linear:
        h = h + _linear_coefficient(form, nbar) * sz
    return h


def compensation_rotation(
    form: HamiltonianForm, nbar: float, phi: float
) -> tuple[str, float]:
    """Per-qubit rotation (axis, angle) cancelling the linear S_z term
    accumulated over an evolution of phase phi = eta t.

    Returns ('z', -2 nbar phi) for the ladder form and
    ('z', -(2 nbar + 1) phi) for the Casimir form; nbar and phi must be
    finite (NonFiniteValue).
    """
    _check_finite("phi", phi)
    return ("z", -_linear_coefficient(form, nbar) * phi)


def compensation_layer(n: int, form: HamiltonianForm, nbar: float, phi: float) -> np.ndarray:
    """The compensation rotation applied to every qubit, as a matrix.

    Built from Kronecker products of the one-qubit rotation, not from the
    diagonal phases of `thermal_evolve`, so it can serve as a reference.
    """
    single = rotation(*compensation_rotation(form, nbar, phi))
    return kron(*[single] * _check_atoms(n))


@lru_cache(maxsize=None)
def _spectrum(n: int, form: HamiltonianForm) -> tuple[np.ndarray, ...]:
    """Read-only (w, v, v^dagger, diagonal of S_z) of the linear-free
    Hamiltonian; arguments are validated by the caller."""
    w, v, vh = hermitian_spectrum(build_hamiltonian(n, form))
    sz = np.diag(collective_op("z", n)).real.copy()
    return read_only(w), read_only(v), read_only(vh), read_only(sz)


def evolve(n: int, phi: float, form: HamiltonianForm) -> np.ndarray:
    """Ideal collective evolution exp(-i phi H_0), as a fresh array.

    H_0 is S+ S- (ladder) or S^2 - S_z^2 (Casimir), the Hamiltonian
    without its linear term.  This is also the compensated evolution for
    every nbar (see `thermal_evolve`).

    Raises:
        NonFiniteValue: if phi is NaN or infinite.
    """
    n = _check_atoms(n)
    _check_form(form)
    _check_finite("phi", phi)
    w, v, vh, _ = _spectrum(n, form)
    return expm_spectral(w, v, vh, phi)


def thermal_evolve(n: int, phi: float, form: HamiltonianForm, nbar: float) -> np.ndarray:
    """Raw thermal evolution exp(-i phi (H_0 + c S_z)), as a fresh array.

    c = 2 nbar (ladder) or 2 nbar + 1 (Casimir).  c S_z commutes with
    H_0, so this is `evolve` with its rows scaled by e^{-i phi c S_z},
    and the per-qubit compensation R_z(-c phi) = e^{+i phi c S_z} undoes
    it exactly, before, after or split around the pulse:

        compensation_layer(n, form, nbar, phi) @ thermal_evolve(n, phi, form, nbar)
            == evolve(n, phi, form)

    Raises:
        NonFiniteValue: if phi or nbar is NaN or infinite.
    """
    u = evolve(n, phi, form)
    sz = _spectrum(n, form)[3]
    return np.exp(-1j * phi * _linear_coefficient(form, nbar) * sz)[:, None] * u
