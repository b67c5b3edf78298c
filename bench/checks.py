"""Output checks for one benchmark run.

Every emitted energy is compared with ``numpy.linalg.eigvalsh`` of the
matrix the package's own ``build_*_hamiltonian`` gives for that point, and
every sorted photon number and atomic energy with the expectation value in
the matching ``numpy.linalg.eigh`` eigenvector.  The comparison is by
absolute tolerance, not by bytes, so a solver that agrees with LAPACK to
rounding still passes.  A dataset with missing or extra rows, missing
columns or unparseable values fails.

Observables are basis-dependent inside a degenerate eigenspace, so states
whose energies lie within ``GAP_MIN`` of each other are compared as a
cluster (the sum over the cluster is invariant) and skipped where the
cluster straddles the last reported state.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

#: Largest allowed |emitted energy - LAPACK energy|, in units of omega_c.
#: The seed solver agrees with LAPACK to 2e-14 on every workload.
ENERGY_ATOL = 1e-10

#: Largest allowed |emitted - LAPACK| photon number or atomic energy.
OBS_ATOL = 1e-8

#: Energies closer than this form one degenerate cluster for the
#: observable checks.
GAP_MIN = 1e-3

#: Largest allowed |emitted lambda - grid lambda|.
GRID_ATOL = 1e-12

_REGIMES = ((0.1, "moderate"), (0.5, "strong"), (1.0, "ultra-strong"))


def file_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in ``out_dir``, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(out_dir).iterdir())
        if path.is_file()
    }


def _regime(ratio: float) -> str:
    for bound, label in _REGIMES:
        if ratio <= bound:
            return label
    return "deep-strong"


def _load(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _table(path: Path, nrows: int, columns: list[str]) -> dict[str, np.ndarray]:
    """Numeric columns of a CSV dataset, after checking its shape."""
    rows = _load(path)
    if len(rows) != nrows:
        raise ValueError(f"{len(rows)} rows, expected {nrows}")
    table = {}
    for name in columns:
        values = [row.get(name) for row in rows]
        if any(v is None or v == "" for v in values):
            raise ValueError(f"column {name!r} missing or short")
        table[name] = np.array([float(v) for v in values])
        if not np.isfinite(table[name]).all():
            raise ValueError(f"column {name!r} has non-finite values")
    if any(None in row for row in rows):
        raise ValueError("a row has more fields than the header")
    return table


def _cols(prefix: str, k: int, start: int = 0) -> list[str]:
    return [f"{prefix}_{i}" for i in range(start, start + k)]


class _Checker:
    """Collects problems for one run's output directory."""

    def __init__(self, workload, ps, out_dir: Path):
        self.w = workload
        self.ps = ps
        self.out = Path(out_dir)
        self.problems: list[str] = []
        self.basis = ps.build_basis(workload.n_max)

    def fail(self, where: str, message: str) -> None:
        self.problems.append(f"{where}: {message}")

    def close(self, where, emitted, reference, atol) -> None:
        emitted = np.asarray(emitted, dtype=float)
        err = np.abs(emitted - np.asarray(reference, dtype=float))
        if err.size and not float(err.max()) <= atol:
            i = int(np.argmax(err))
            self.fail(where, f"off by {err.flat[i]:.3e} (tolerance {atol:g})")

    def params(self, lam: float):
        return self.ps.ModelParams(omega1=0.0, omega2=self.w.omega2, omega_c=1.0, lam=lam)

    def hamiltonian(self, model: str, lam: float, basis=None):
        builder = (
            self.ps.build_rabi_hamiltonian if model == "full" else self.ps.build_rwa_hamiltonian
        )
        return builder(self.params(lam), self.basis if basis is None else basis)

    # -- sweep datasets -------------------------------------------------

    def sweep(self) -> None:
        k = self.w.k_states
        grid = np.linspace(0.0, self.w.lambda_max, self.w.steps)
        columns = {
            "fig2": ["lambda"] + [
                c for m in ("full", "rwa") for c in _cols(f"e_{m}", k) + _cols(f"e_{m}_tracked", k)
            ],
            "fig3": ["lambda"] + [
                c for m in ("full", "rwa")
                for c in _cols(f"nu_{m}", k, 1) + [f"peak_{m}_1", f"peak_{m}_2", f"delta_nu_{m}"]
            ],
            "fig4_left": ["lambda"] + [
                c for m in ("full", "rwa") for c in _cols(f"nbar_{m}", k) + _cols(f"nbar_{m}_tracked", k)
            ],
            "fig4_right": ["lambda"] + [
                c for m in ("full", "rwa") for c in _cols(f"eatom_{m}", k) + _cols(f"eatom_{m}_tracked", k)
            ],
        }
        tables = {}
        for name in self.w.datasets:
            where = f"{name}.csv"
            try:
                tables[name] = _table(self.out / where, self.w.steps, columns[name])
            except (OSError, ValueError, TypeError, csv.Error) as exc:
                self.fail(where, f"unreadable: {exc}")
                continue
            self.close(f"{where} lambda", tables[name]["lambda"], grid, GRID_ATOL)
        if "fig2" in tables:
            self.regimes(grid)
        n = np.arange(self.basis.dim) // 2
        excited = np.arange(self.basis.dim) % 2
        for i, lam in enumerate(grid):
            for model in ("full", "rwa"):
                h = self.hamiltonian(model, float(lam))
                energies = np.linalg.eigvalsh(h)
                at = f"lambda={lam:.6g} {model}"
                if "fig2" in tables:
                    t = tables["fig2"]
                    self.close(f"fig2 {at} sorted energies",
                               [t[c][i] for c in _cols(f"e_{model}", k)], energies[:k], ENERGY_ATOL)
                    tracked = np.array([t[c][i] for c in _cols(f"e_{model}_tracked", k)])
                    nearest = np.abs(tracked[:, None] - energies[None, :]).min(axis=1)
                    self.close(f"fig2 {at} tracked energies", nearest, 0.0, ENERGY_ATOL)
                if "fig3" in tables:
                    t = tables["fig3"]
                    self.close(f"fig3 {at} transitions",
                               [t[c][i] for c in _cols(f"nu_{model}", k, 1)],
                               energies[1 : k + 1] - energies[0], ENERGY_ATOL)
                    self.close(f"fig3 {at} peak splitting", t[f"delta_nu_{model}"][i],
                               t[f"peak_{model}_2"][i] - t[f"peak_{model}_1"][i], ENERGY_ATOL)
                if "fig4_left" in tables or "fig4_right" in tables:
                    values, vectors = np.linalg.eigh(h)
                    weights = vectors**2
                    expected = {
                        "fig4_left": ("nbar", n @ weights),
                        "fig4_right": ("eatom", self.w.omega2 * (excited @ weights)),
                    }
                    for name, (prefix, exact) in expected.items():
                        if name in tables:
                            t = tables[name]
                            self.observables(f"{name} {at}", values, exact,
                                             [t[c][i] for c in _cols(f"{prefix}_{model}", k)])

    def regimes(self, grid) -> None:
        labels = [row.get("regime") for row in _load(self.out / "fig2.csv")]
        wrong = [
            f"{lam:.6g}" for lam, label in zip(grid, labels) if label != _regime(float(lam))
        ]
        if wrong:
            self.fail("fig2 regime", f"wrong label at lambda={', '.join(wrong[:5])}")

    def observables(self, where, energies, exact, emitted) -> None:
        """Compare sorted observables cluster by cluster (see module doc)."""
        k = len(emitted)
        edges = [0] + [j for j in range(1, len(energies)) if energies[j] - energies[j - 1] >= GAP_MIN]
        edges.append(len(energies))
        for a, b in zip(edges, edges[1:]):
            if b > k:
                break
            self.close(f"{where} states {a}..{b - 1}", sum(emitted[a:b]), exact[a:b].sum(), OBS_ATOL)

    # -- convergence dataset ---------------------------------------------

    def converge(self) -> None:
        k = self.w.k_states
        where = "convergence.csv"
        columns = ["n_max"] + _cols("e", k) + ["max_abs_dev"]
        try:
            t = _table(self.out / where, len(self.w.ladder), columns)
        except (OSError, ValueError, TypeError, csv.Error) as exc:
            self.fail(where, f"unreadable: {exc}")
            return
        self.close(f"{where} n_max", t["n_max"], self.w.ladder, 0.0)
        emitted = np.column_stack([t[c] for c in _cols("e", k)])
        for row, n_max in enumerate(self.w.ladder):
            basis = self.ps.build_basis(n_max)
            energies = np.linalg.eigvalsh(self.hamiltonian("full", self.w.lam, basis))
            self.close(f"{where} n_max={n_max} energies", emitted[row], energies[:k], ENERGY_ATOL)
        deviation = np.abs(emitted - emitted[-1]).max(axis=1)
        self.close(f"{where} max_abs_dev", t["max_abs_dev"], deviation, ENERGY_ATOL)


def check_outputs(workload, ps, out_dir) -> list[str]:
    """Problems found in one run's outputs; an empty list means it passed.

    ``ps`` is the imported ``polariscope`` package whose builders give the
    reference matrices.
    """
    checker = _Checker(workload, ps, out_dir)
    missing = [f for f in workload.expected_files() if not (checker.out / f).is_file()]
    if missing:
        return [f"missing output {name}" for name in missing]
    if workload.ladder:
        checker.converge()
    else:
        checker.sweep()
    return checker.problems
