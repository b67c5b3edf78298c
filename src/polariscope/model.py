"""Physical parameters, truncated product basis, and Hamiltonian builders.

The system is a two-level emitter (levels ``|g>``, ``|e>``) coupled to a
single quantized cavity mode.  In hbar = 1 units the full coupling
Hamiltonian is

    H = w1 |g><g| + w2 |e><e| + w_c (a^dag a + 1/2)
        + lam (|e><g| + |g><e|) (a + a^dag)

while the rotating-wave approximation keeps only the excitation-conserving
part of the coupling, lam (|e><g| a + |g><e| a^dag).

Matrices are assembled over the truncated product basis ``|atom, n>`` with
n = 0..n_max, interleaved so that index(|g,n>) = 2n and index(|e,n>) = 2n+1.
Both builders return dense, exactly symmetric float arrays.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ValidationError


class Parity(Enum):
    """Excitation-number parity: the sector of a basis state, and of every
    eigenvector of the full Hamiltonian, which couples only states of equal
    parity."""

    EVEN = "even"
    ODD = "odd"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters in hbar = 1 units.

    Energies are in units of the cavity frequency unless stated otherwise;
    ``lam`` is the emitter-cavity coupling strength (``lambda`` being a
    reserved word in Python).
    """

    omega1: float = 0.0
    omega2: float = 1.0
    omega_c: float = 1.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega1", "omega2", "omega_c", "lam"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if not self.omega_c > 0:
            raise ValidationError(f"omega_c must be > 0, got {self.omega_c!r}")
        if not self.lam >= 0:
            raise ValidationError(f"lambda must be >= 0, got {self.lam!r}")
        if not self.omega2 > self.omega1:
            raise ValidationError(
                "omega2 must exceed omega1 so the transition frequency is "
                f"positive, got omega1={self.omega1!r}, omega2={self.omega2!r}"
            )

    @property
    def omega21(self) -> float:
        """Transition frequency omega2 - omega1."""
        return self.omega2 - self.omega1

    @property
    def detuning(self) -> float:
        """Detuning Delta = omega21 - omega_c."""
        return self.omega21 - self.omega_c

    def with_lambda(self, lam: float) -> "ModelParams":
        """A copy of these parameters at a different coupling strength."""
        return dataclasses.replace(self, lam=float(lam))


@dataclass(frozen=True)
class FockBasis:
    """Canonically ordered truncated product basis.

    States are interleaved photon-major: index(|g,n>) = 2n and
    index(|e,n>) = 2n+1 for n = 0..n_max, so the dimension is 2(n_max+1).
    """

    n_max: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_max", _check_n_max(self.n_max))

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)

    @cached_property
    def photon_numbers(self) -> np.ndarray:
        """Photon number of each basis state, in canonical order."""
        arr = (np.arange(self.dim) // 2).astype(float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def excitations(self) -> np.ndarray:
        """Excitation count of each basis state, in canonical order."""
        index = np.arange(self.dim)
        arr = index // 2 + index % 2
        arr.setflags(write=False)
        return arr

    @cached_property
    def parity_signs(self) -> np.ndarray:
        """+1 for even-parity basis states, -1 for odd, in canonical order."""
        arr = np.where(self.excitations % 2 == 0, 1, -1)
        arr.setflags(write=False)
        return arr

    @cached_property
    def parity_chains(self) -> np.ndarray:
        """Basis indices of the even and odd chains, shape (2, n_max+1).

        Row 0 is |g,0>, |e,1>, |g,2>, ... and row 1 is |e,0>, |g,1>, |e,2>,
        ...; each row ascends, and the full Hamiltonian couples only
        neighbours along a row.
        """
        j = np.arange(self.n_max + 1)
        arr = 2 * j + (j + np.arange(2)[:, None]) % 2
        arr.setflags(write=False)
        return arr


def _check_n_max(n_max) -> int:
    if n_max != int(n_max) or n_max < 0:
        raise ValidationError(
            f"n_max must be a non-negative integer, got {n_max!r}"
        )
    return int(n_max)


def build_basis(n_max: int) -> FockBasis:
    """Canonical interleaved basis with photon numbers 0..n_max."""
    return FockBasis(n_max=n_max)


def _annihilation(n_max: int) -> np.ndarray:
    """Photon annihilation operator a on Fock states 0..n_max."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)


def _bare_hamiltonian(params: ModelParams, basis: FockBasis) -> np.ndarray:
    """Uncoupled part: atomic energies plus cavity energy with zero point."""
    n = np.arange(basis.n_max + 1, dtype=float)
    cavity = params.omega_c * np.diag(n + 0.5)
    atom = np.diag([float(params.omega1), float(params.omega2)])
    return np.kron(cavity, np.eye(2)) + np.kron(np.eye(basis.n_max + 1), atom)


def bare_energies(params: ModelParams, basis: FockBasis) -> np.ndarray:
    """Diagonal of both Hamiltonians, w_c (n + 1/2) plus the atom energy of
    each basis state in canonical order, with the same floating-point
    operations as the matrix builders (the Kronecker factors are 1.0 and
    0.0, which change no bits)."""
    excited = np.arange(basis.dim) % 2 == 1
    return params.omega_c * (basis.photon_numbers + 0.5) + np.where(
        excited, params.omega2, params.omega1
    )


def build_rabi_hamiltonian(params: ModelParams, basis: FockBasis) -> np.ndarray:
    """Full coupling Hamiltonian, counter-rotating terms included.

    Diagonal entries are w1 + (n + 1/2) w_c on |g,n> and w2 + (n + 1/2) w_c
    on |e,n>; the coupling contributes lam*sqrt(n) between |g,n> and |e,n-1>
    and lam*sqrt(n+1) between |g,n> and |e,n+1>.  Only equal-parity basis
    states are coupled.
    """
    a = _annihilation(basis.n_max)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return _bare_hamiltonian(params, basis) + params.lam * np.kron(a + a.T, sigma_x)


def build_rwa_hamiltonian(params: ModelParams, basis: FockBasis) -> np.ndarray:
    """Rotating-wave Hamiltonian: same diagonal, excitation-conserving coupling.

    Only the lam*sqrt(n) entries between |g,n> and |e,n-1> survive; the
    counter-rotating lam*sqrt(n+1) entries of the full model are absent, so
    the matrix is block diagonal in the excitation count and |g,0> is an
    exact eigenstate at every coupling.
    """
    a = _annihilation(basis.n_max)
    sigma_plus = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e><g|
    raising = np.kron(a, sigma_plus)
    return _bare_hamiltonian(params, basis) + params.lam * (raising + raising.T)
