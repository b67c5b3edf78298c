"""Benchmark workloads: canonical CLI configurations and their seeded variants.

Seed 0 gives each workload's canonical configuration.  Any other seed
perturbs only continuous parameters, inside ranges that keep the basis
dimension, the number of Hamiltonians solved and the regime label of every
grid point equal to the canonical ones:

- ``lambda_max`` is scaled by a factor in [0.992, 1.0] on ``sweep-default``.
  Its canonical grid puts a point exactly on each regime boundary
  (lambda = 0.1, 0.5, 1.0), and a boundary belongs to the lower regime;
  shrinking the grid by less than 0.8 % keeps those points below their
  boundary and the next points above it.  omega2 stays 1 there: the
  degenerate polariton fork of the resonant model at lambda = 0 is part of
  what the workload measures.
- ``omega2`` moves by at most 0.02 either way on ``converge-deep``.

Every value is passed to the CLI as an explicit flag, so the benchmark does
not depend on the CLI's defaults.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

LAMBDA_MAX_SHRINK = 0.008
OMEGA2_SPREAD = 0.02


@dataclass(frozen=True)
class Workload:
    """One CLI invocation and what it must produce.

    ``ladder`` lists the truncations ``converge`` solves; it is empty for
    ``sweep``, whose grid is ``steps`` points on [0, lambda_max].  Both write
    CSV; only ``sweep`` writes a plot script per dataset.
    """

    name: str
    command: str
    omega2: float
    n_max: int
    k_states: int
    datasets: tuple[str, ...]
    hamiltonians: int
    lambda_max: float = 0.0
    steps: int = 0
    lam: float = 0.0
    ladder: tuple[int, ...] = ()

    def argv(self) -> list[str]:
        argv = [
            self.command,
            "--omega1", "0.0",
            "--omega2", repr(self.omega2),
            "--omega-c", "1.0",
            "--n-max", str(self.n_max),
            "--k-states", str(self.k_states),
            "--format", "csv",
        ]
        if self.ladder:
            argv += ["--lambda", repr(self.lam)]
        else:
            argv += [
                "--lambda-min", "0.0",
                "--lambda-max", repr(self.lambda_max),
                "--steps", str(self.steps),
            ]
        return argv

    def expected_files(self) -> list[str]:
        files = [f"{name}.csv" for name in self.datasets]
        if not self.ladder:
            files += [f"plot_{name}.py" for name in self.datasets]
        return files


CANONICAL = {
    w.name: w
    for w in (
        Workload(
            name="sweep-default",
            command="sweep",
            omega2=1.0,
            n_max=14,
            k_states=7,
            datasets=("fig2", "fig3", "fig4_left", "fig4_right"),
            hamiltonians=242,
            lambda_max=1.2,
            steps=121,
        ),
        Workload(
            name="converge-deep",
            command="converge",
            omega2=1.0,
            n_max=63,
            k_states=7,
            datasets=("convergence",),
            hamiltonians=9,
            lam=1.0,
            ladder=(4, 6, 8, 10, 14, 20, 28, 40, 63),
        ),
    )
}


def for_seed(name: str, seed: int) -> Workload:
    """The workload's configuration for ``seed``; seed 0 is canonical."""
    workload = CANONICAL[name]
    if seed == 0:
        return workload
    rng = random.Random(f"{name}:{seed}")
    if workload.ladder:
        shift = OMEGA2_SPREAD * (2.0 * rng.random() - 1.0)
        return dataclasses.replace(workload, omega2=round(workload.omega2 + shift, 6))
    shrink = 1.0 - LAMBDA_MAX_SHRINK * rng.random()
    return dataclasses.replace(workload, lambda_max=round(workload.lambda_max * shrink, 6))
