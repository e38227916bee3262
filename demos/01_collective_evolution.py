"""Collective evolution of atoms in a dispersive cavity.

Builds the effective Hamiltonian in both of its writings, evolves two
atoms, compares against the closed-form matrix, and shows that the
thermal S_z term is removed by per-qubit z rotations regardless of the
cavity's mean photon number.
"""

import numpy as np

from cavitygates import (
    CavityParams,
    HamiltonianForm,
    build_hamiltonian,
    collective_op,
    compensation_layer,
    compensation_rotation,
    coupling_eta,
    dicke_projector_g,
    evolve,
    s_squared,
    thermal_evolve,
    validity_ratio,
)
from cavitygates.serialize import format_matrix

np.set_printoptions(precision=4, suppress=True)

# --- the two writings of H/(hbar eta) are the same operator ------------
for n in (1, 2, 3):
    ladder = build_hamiltonian(n, HamiltonianForm.LADDER, nbar=0.7, include_linear=True)
    casimir = build_hamiltonian(n, HamiltonianForm.CASIMIR, nbar=0.7, include_linear=True)
    print(f"{n} atom(s): ladder vs Casimir writing, max diff "
          f"{np.abs(ladder - casimir).max():.2e}")

# --- two atoms: H = 2 (hbar eta) G with G a rank-2 projector -----------
g = dicke_projector_g()
print("\nDicke projector G (eigenvalues", np.round(np.linalg.eigvalsh(g), 12), "):")
print(format_matrix(g))
print("G^2 - G max entry:", np.abs(g @ g - g).max())

# --- evolution for phi = eta t = pi/4 -----------------------------------
phi = np.pi / 4
u = evolve(2, phi, HamiltonianForm.LADDER)
print(f"\nU(phi = pi/4) in the computational basis:")
print(format_matrix(u))
print("|00> picks up e^(-2 i phi); the middle block mixes |01>, |10>.")

# --- thermal compensation ------------------------------------------------
print("\nthermal compensation:")
for nbar in (0.5, 2.0, 5.0):
    hot = thermal_evolve(2, phi, HamiltonianForm.LADDER, nbar)
    fixed = compensation_layer(2, HamiltonianForm.LADDER, nbar, phi) @ hot
    axis, angle = compensation_rotation(HamiltonianForm.LADDER, nbar, phi)
    print(f"  nbar = {nbar}: thermal evolution is {np.abs(hot - u).max():.2e} off the ideal one, "
          f"{np.abs(fixed - u).max():.2e} after R_{axis}({angle / np.pi:+.3f} pi) per qubit")

# --- where the numbers come from ----------------------------------------
params = CavityParams(g=2 * np.pi * 20e3, delta=2 * np.pi * 1e6, kappa=2 * np.pi * 50e3)
eta = coupling_eta(params)
print(f"\nexample cavity: eta = {eta:.4g} rad/s, "
      f"validity ratio = {validity_ratio(params):.3g}")
print(f"a pi/4 pulse then lasts t = {phi / eta * 1e6:.3g} us")

# --- the operator identity behind the two writings ----------------------
n = 3
lhs = collective_op("+", n) @ collective_op("-", n)
sz = collective_op("z", n)
rhs = s_squared(n) - sz @ sz + sz
print(f"\nS+S- = S^2 - Sz^2 + Sz for {n} atoms: max diff {np.abs(lhs - rhs).max():.2e}")
