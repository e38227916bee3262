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
compensation layer must undo.  Every pulse is exp(-i phi (H_0 + c S_z)),
c = 0 in `evolve`, H_0 from `build_hamiltonian`, its one definition.  H_0
and S_z are numbers h_s, m_s on each joint (j, m) sector of S^2 and S_z, so
a pulse is sum_s e^{-i phi (h_s + c m_s)} Pi_s, Pi_s cached per atom count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite, sqrt
from types import MappingProxyType

import numpy as np

from .errors import (
    DegenerateParams, InvalidForm, NonFiniteValue, _check_finite, _check_non_negative,
)
from .gates import rotation
from .linalg import hermitian_spectrum, kron, read_only
from .spin import _check_atoms, collective_op, s_squared


class HamiltonianForm(enum.Enum):
    """Which writing of the effective Hamiltonian a computation uses."""

    LADDER = "ladder"    # S+ S-  (+ 2 nbar Sz)
    CASIMIR = "casimir"  # S^2 - Sz^2  (+ (2 nbar + 1) Sz)

    __hash__ = object.__hash__  # members are singletons compared by identity: no Python hash

    @classmethod
    def _missing_(cls, value):
        raise InvalidForm(f"unknown Hamiltonian form {value!r}")


def _check_form(form: HamiltonianForm) -> None:
    """Raise InvalidForm unless form is a HamiltonianForm member."""
    if not isinstance(form, HamiltonianForm):
        raise InvalidForm(f"unknown Hamiltonian form {form!r}")


@dataclass(frozen=True)
class CavityParams:
    """Physical cavity/atom parameters, all rates in rad/s.

    delta is the atom-cavity detuning omega_0 - omega; its sign sets the
    sign of eta.  nbar is the mean thermal photon number of the mode.
    g, delta, kappa and nbar must be finite (NonFiniteValue otherwise);
    g, kappa, nbar >= 0, and g^2, kappa^2 + delta^2 (not 0), eta and validity_ratio
    finite floats (DegenerateParams otherwise).
    """

    g: float
    delta: float
    kappa: float
    nbar: float = 0.0
    n_atoms: int = 2

    def __post_init__(self):
        _check_finite("delta", self.delta)
        for name in ("g", "kappa", "nbar"):
            _check_non_negative(name, getattr(self, name))
        _check_atoms(self.n_atoms)
        rates = self.kappa * self.kappa + self.delta * self.delta  # * cannot overflow as ** can
        if rates == 0:  # kappa = delta = 0, or squares below the smallest float
            raise DegenerateParams(f"eta undefined: kappa^2 + delta^2 is 0 as a float: {self}")
        if inf in (rates, self.g * self.g):  # the squares eta and validity_ratio take
            raise DegenerateParams(f"g^2 or kappa^2 + delta^2 overflows a float: {self}")
        if inf in (abs(coupling_eta(self)), validity_ratio(self)):  # g^2 delta, or a quotient
            raise DegenerateParams(f"eta or the validity ratio overflows a float: {self}")


def coupling_eta(params: CavityParams) -> float:
    """Coupling factor eta = g^2 Delta / (kappa^2 + Delta^2), in rad/s."""
    return params.g ** 2 * params.delta / (params.kappa ** 2 + params.delta ** 2)


#: validity_ratio above this is reported as a warning.  At it, cnot2 in vacuum misses the CNOT by
#: 1 - F = 1.9e-2 (phase distance 3.1e-2) in the Tavis-Cummings model, falling as the ratio^2.
VALIDITY_WARN_THRESHOLD = 0.1


def validity_ratio(params: CavityParams) -> float:
    """g sqrt(N) / sqrt(Delta^2 + kappa^2).

    The effective Hamiltonian holds in the dispersive limit where this
    ratio is small.
    """
    return params.g * sqrt(params.n_atoms) / sqrt(params.kappa ** 2 + params.delta ** 2)


def _linear_coefficient(form: HamiltonianForm, nbar: float) -> float:
    """Coefficient c of the form-specific linear term c S_z:
    2 nbar (ladder) or 2 nbar + 1 (Casimir); nbar must be finite and >= 0, and c finite."""
    _check_form(form)
    _check_non_negative("nbar", nbar)
    if not isfinite(2.0 * float(nbar)):  # Python floats: no warning; 2 nbar + 1 is finite then
        raise NonFiniteValue(f"c = 2 nbar (+ 1) must be finite, overflows at nbar = {nbar}")
    return 2.0 * nbar if form is HamiltonianForm.LADDER else 2.0 * nbar + 1.0


def build_hamiltonian(
    n: int,
    form: HamiltonianForm,
    nbar: float = 0.0,
    include_linear: bool = False,
) -> np.ndarray:
    """Dimensionless Hamiltonian H / (hbar eta) for n atoms.

    With include_linear=False the form-specific linear S_z term is
    dropped: LADDER gives S+ S-, CASIMIR gives S^2 - S_z^2.  nbar must be
    finite (NonFiniteValue) and >= 0 (DegenerateParams) even then.
    """
    n = _check_atoms(n)
    c = _linear_coefficient(form, nbar)  # checks form and nbar
    sz = collective_op("z", n)
    if form is HamiltonianForm.LADDER:
        h = collective_op("+", n) @ collective_op("-", n)
    else:
        h = s_squared(n) - sz @ sz
    if include_linear:
        h = h + c * sz
    return h


def compensation_rotation(
    form: HamiltonianForm, nbar: float, phi: float
) -> tuple[str, float]:
    """Per-qubit rotation (axis, angle) cancelling the linear S_z term
    accumulated over an evolution of phase phi = eta t.

    Returns ('z', -2 nbar phi) for the ladder form and
    ('z', -(2 nbar + 1) phi) for the Casimir form; nbar >= 0 (DegenerateParams),
    and phi and nbar pass the pulse's own rule, `_check_phase(phi, c)`, which
    keeps the angle c phi finite too (NonFiniteValue).
    """
    c = _linear_coefficient(form, nbar)
    _check_phase(phi, c)
    return ("z", -c * phi)


def compensation_layer(n: int, form: HamiltonianForm, nbar: float, phi: float) -> np.ndarray:
    """The compensation rotation applied to every qubit, as a matrix.

    Built from Kronecker products of the one-qubit rotation, not from the
    diagonal phases of `thermal_evolve`, so it can serve as a reference.
    """
    single = rotation(*compensation_rotation(form, nbar, phi))
    return kron(*[single] * _check_atoms(n))


@lru_cache(maxsize=None)
def _basis(n: int) -> tuple:
    """Read-only (projectors, m, h0, rows) of n checked atoms: flat (s, d^2) projectors onto the
    joint (j, m) eigenspaces, S_z's value on each, and each form's values at h0[rows[form]]."""
    ops = (collective_op("z", n), *(build_hamiltonian(n, form) for form in HamiltonianForm))
    key, v, vh = hermitian_spectrum(s_squared(n) + ops[0] / 2)  # by j(j+1) + m/2, 1:1 for n <= 3
    first = np.flatnonzero(np.diff(np.round(4 * key), prepend=-1))  # each (j, m)'s first column
    m, *h0 = (np.round(4 * np.diagonal(vh @ op @ v).real)[first] / 4 for op in ops)
    projectors = np.add.reduceat(v.T[:, :, None] * vh[:, None, :], first).reshape(len(first), -1)
    rows = MappingProxyType({form: i for i, form in enumerate(HamiltonianForm)})
    return read_only(projectors), read_only(m), read_only(np.array(h0)), rows


#: Largest |h_s| and |m_s| over both forms and 1-3 atoms: S+ S- = j(j+1) - m(m-1) is 4 at
#: j = 3/2, m = 1/2 (S^2 - S_z^2 is at most 15/4 - 1/4), and |m| <= 3/2.  Rounding is
#: monotone, so every exponent phi (h_s + c m_s) of a pulse is finite if |phi| (4 + 3/2 |c|) is.
_SPECTRUM_BOUND = (4.0, 1.5)


def _check_phase(phi: float, c: float = 0.0) -> None:
    """Raise NonFiniteValue unless phi is finite and phi (H_0 + c S_z) is too, on every sector."""
    _check_finite("phi", phi)
    h, m = _SPECTRUM_BOUND
    if not isfinite(abs(float(phi)) * (h + m * abs(float(c)))):  # Python floats: no warning
        raise NonFiniteValue(f"phi (H_0 + c S_z) must be finite, overflows at phi = {phi}, c = {c}")


def _pulses(n: int, forms, phis, c=None) -> np.ndarray:
    """exp(-i phi (H_0 + c S_z)) per form: per sector of `_basis(n)` the phase of the forms' rows,
    gathered from h0, plus c m if c (scalar or per form) is given; a (1, s) @ (s, d^2) per pulse."""
    projectors, m, h0, rows = _basis(n)
    w = h0.take([rows[form] for form in forms], 0)
    z = -1j * np.asarray(phis)[..., None]
    phases = np.exp(z * (w if c is None else w + np.multiply.outer(c, m)))
    return (phases[:, None, :] @ projectors).reshape(len(w), 2 ** n, 2 ** n)


def evolve(n: int, phi: float, form: HamiltonianForm) -> np.ndarray:
    """Ideal collective evolution exp(-i phi H_0), as a fresh array.

    H_0 is S+ S- (ladder) or S^2 - S_z^2 (Casimir), the Hamiltonian
    without its linear term.  This is also the compensated evolution for
    every nbar (see `thermal_evolve`).

    Raises:
        NonFiniteValue: if phi is NaN or infinite, or phi H_0 overflows.
    """
    n = _check_atoms(n)
    _check_form(form)
    _check_phase(phi)
    return _pulses(n, (form,), phi)[0]


def thermal_evolve(n: int, phi: float, form: HamiltonianForm, nbar: float) -> np.ndarray:
    """Raw thermal evolution exp(-i phi (H_0 + c S_z)), as a fresh array.

    c = 2 nbar (ladder) or 2 nbar + 1 (Casimir).  c S_z commutes with
    H_0, so this is `evolve` with c m added to its diagonal exponent, and
    the per-qubit compensation R_z(-c phi) = e^{+i phi c S_z} undoes it
    exactly, before, after or split around the pulse:

        compensation_layer(n, form, nbar, phi) @ thermal_evolve(n, phi, form, nbar)
            == evolve(n, phi, form)

    Raises:
        NonFiniteValue: if phi or nbar is NaN or infinite, or phi (H_0 + c S_z)
            overflows.
        DegenerateParams: if nbar is negative.
    """
    n = _check_atoms(n)
    c = _linear_coefficient(form, nbar)  # checks form and nbar
    _check_phase(phi, c)
    return _pulses(n, (form,), phi, c)[0]
