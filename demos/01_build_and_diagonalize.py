"""
Building the coupled emitter-cavity Hamiltonians and diagonalizing them
=======================================================================

A two-level emitter (levels omega_1 < omega_2) sits in a single-mode cavity
(frequency omega_c) and couples to the field with strength lam.  This demo
builds the full interaction Hamiltonian and its rotating-wave approximation
over a truncated photon basis, solves both with the in-house structured
solvers (the full model's two parity chains, the RWA's 2x2 excitation
blocks), checks them against LAPACK on the dense matrices, and prints the
lowest part of each spectrum.
"""

import numpy as np

import polariscope as ps
from polariscope import ModelParams

# resonant emitter: omega_2 - omega_1 = omega_c = 1, moderate coupling
params = ModelParams(omega1=0.0, omega2=1.0, omega_c=1.0, lam=0.3)

# keep photon numbers n = 0..14, i.e. a 30x30 matrix
basis = ps.build_basis(n_max=14)

h_full = ps.build_rabi_hamiltonian(params, basis)
h_rwa = ps.build_rwa_hamiltonian(params, basis)

eig_full = ps.solve_rabi(params, basis)
eig_rwa = ps.solve_rwa(params, basis)

print(f"basis dimension: {basis.dim}  (|g,n> and |e,n> for n <= {basis.n_max})")
print(f"worst eigenpair residual ||Hv - Ev||: full {eig_full.residual:.2e}, "
      f"rwa {eig_rwa.residual:.2e}")

# the structured solvers never form the matrices; LAPACK on the dense
# matrices gives the same levels
for name, eig, h in (("full", eig_full, h_full), ("rwa", eig_rwa, h_rwa)):
    print(f"largest |E_{name} - E_lapack|: "
          f"{np.max(np.abs(eig.eigenvalues - np.linalg.eigvalsh(h))):.1e}")
print()

# the full Hamiltonian conserves excitation-number parity, so every
# eigenvector carries a definite even/odd tag
print("lowest six levels at lam = 0.3:")
print(f"{'k':>3} {'E_full':>12} {'parity':>8} {'E_rwa':>12}")
for k in range(6):
    print(f"{k:>3} {eig_full.eigenvalues[k]:>12.6f} "
          f"{eig_full.parities[k].value:>8} {eig_rwa.eigenvalues[k]:>12.6f}")
print()

# with the coupling switched off both spectra collapse onto the bare ladder
bare = ps.solve_rabi(params.with_lambda(0.0), basis)
print("lam = 0 bare ladder (lowest six):",
      ", ".join(f"{e:.3f}" for e in bare.eigenvalues[:6]))
