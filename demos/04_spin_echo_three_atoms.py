"""Spin-echo isolation of two atoms out of three.

With three atoms the collective interaction entangles everyone.  A NOT
pulse on atom 1 between two equal pulses reverses that atom's coupling;
when each pulse has phi = 2 pi/3 the unwanted couplings rewind exactly
and the composition factors as (identity on atom 1) x U23 with
U23 = exp(-i pi/3 sigma_z x sigma_z) on atoms 2 and 3.
"""

import numpy as np

from cavitygates import (
    HamiltonianForm,
    build_hamiltonian,
    collective_time,
    compose,
    coupled_basis_transform_3,
    local_invariants,
    phase_distance,
    spin_echo_u23,
    u23_gate,
)
from cavitygates.serialize import format_matrix

np.set_printoptions(precision=4, suppress=True, linewidth=120)

seq = spin_echo_u23(branch=+1)
print(f"sequence '{seq.label}', collective time "
      f"{collective_time(seq) / np.pi} pi / eta")

u = compose(seq)
print("\noff-diagonal 4x4 blocks (atom 1 vs rest):",
      np.linalg.norm(u[:4, 4:]), np.linalg.norm(u[4:, :4]))

factor = u[:4, :4]  # atom 1 is idle: both diagonal blocks are this factor
print("\nextracted factor on atoms 2, 3:")
print(format_matrix(factor.round(12)))
print("distance to exp(-i pi/3 zz):", np.abs(factor - u23_gate()).max())

g1, g2 = local_invariants(factor)
print(f"invariants: ({g1.real:.4f}, {g2.real:.4f})  <- (1/4, 3/2)")

# the other branch gives the adjoint gate
minus = compose(spin_echo_u23(branch=-1))
print("\nbranch -1 vs adjoint of branch +1:",
      phase_distance(minus, u.conj().T))

# Why 2 pi/3: split off atom 1 with the coupled-basis transform.  The
# generator then block-diagonalizes by the pair spin of atoms 2-3, and
# its eigenvalues within the blocks differ by integers times 3 (in
# units of eta), so everything realigns with period 2 pi / 3.
w = coupled_basis_transform_3()
h = build_hamiltonian(3, HamiltonianForm.CASIMIR)
h_coupled = w @ h @ w.conj().T
triplet, singlet = h_coupled[:6, :6], h_coupled[6:, 6:]
print("\ngenerator eigenvalues, triplet sector:",
      np.round(np.linalg.eigvalsh(triplet), 6))
print("generator eigenvalues, singlet sector:",
      np.round(np.linalg.eigvalsh(singlet), 6))
