"""
Absorption stick spectrum: two polariton lines, then sidebands
==============================================================

Dipole transitions out of the ground state make a stick spectrum: each
eigenstate f contributes a line at its transition frequency with intensity
|<f| mu |ground>|^2, mu = |e><g|.  The RWA gives exactly two equal lines at
any coupling.  The full Hamiltonian keeps the strong doublet but adds weak
sidebands fed by the counter-rotating terms, and parity makes half of all
states strictly dark.
"""

import polariscope as ps
from polariscope import ModelParams

params = ModelParams(lam=0.5)
basis = ps.build_basis(14)

eig_full = ps.solve_rabi(params, basis)
eig_rwa = ps.solve_rwa(params, basis)

lines_full = ps.absorption_lines(eig_full, basis)
lines_rwa = ps.absorption_lines(eig_rwa, basis)

print("RWA lines at lam = 0.5 (always exactly two, equal intensity):")
for line in lines_rwa:
    print(f"  nu = {line.frequency:8.4f}  intensity = {line.intensity:.4f}")

print(f"\nfull-Hamiltonian lines at lam = 0.5 ({len(lines_full)} above threshold):")
for line in lines_full:
    print(f"  nu = {line.frequency:8.4f}  intensity = {line.intensity:.4f}  "
          f"(to state {line.to_index})")

# parity selection: even ground state -> only odd states absorb
dark = [k for k, p in enumerate(eig_full.parities)
        if p is ps.Parity.EVEN and k > 0]
print(f"\n{len(dark)} even-parity states are strictly dark "
      "(dipole matrix element exactly zero by parity)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    for line in lines_full:
        ax.vlines(line.frequency, 0.0, line.intensity, color="k", lw=2)
    for line in lines_rwa:
        ax.vlines(line.frequency, 0.0, line.intensity, color="r", lw=1,
                  linestyles="dashed")
    ax.set_xlabel(r"transition frequency $/\omega_c$")
    ax.set_ylabel("normalized intensity")
    ax.set_title("absorption sticks at lam = 0.5 (black full, red RWA)")
    fig.tight_layout()
    fig.savefig("absorption_sticks.png", dpi=150)
    print("wrote absorption_sticks.png")
