"""Command-line interface.

Commands
--------
spectrum     eigenvalue/observable table of both Hamiltonians at one coupling
sweep        coupling-sweep datasets (energies, peak positions, observables)
observables  photon-number and atomic-energy sweep datasets only
absorption   stick absorption spectrum of both Hamiltonians at one coupling
converge     lowest-energy convergence versus basis truncation
regimes      coupling-regime classification table over the sweep grid

Values are resolved with precedence flags > config file > defaults; the
config file (``--config``) holds flat ``key=value`` lines with ``#``
comments.  The output directory falls back to the POLARISCOPE_OUT
environment variable when ``--out`` is not given.

Exit codes: 0 success, 1 usage or validation error, 2 eigensolver
non-convergence, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import NonConvergence, UsageError, ValidationError
from .eigensolve import DEFAULT_TOL, solve_rabi
from .experiments import (
    Dataset,
    SweepGrid,
    absorption_dataset,
    convergence_study,
    sweep_datasets,
)
from .io import FORMATS, emit_dataset, emit_plot_script, parse_config_file
from .model import ModelParams, build_basis
from .observables import atomic_energy, photon_number
from .spectra import classify_regime, solve_rwa

COMMANDS = ("spectrum", "sweep", "observables", "absorption", "converge", "regimes")

#: Truncation ladder used by `converge`; values above --n-max are dropped and
#: --n-max itself is appended as the reference truncation.
CONVERGE_LADDER = (4, 6, 8, 10, 14, 20, 28, 40)

_ENV_OUT = "POLARISCOPE_OUT"


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one CLI run."""

    command: str
    params: ModelParams
    n_max: int = 14
    k_states: int = 7
    lambda_min: float = 0.0
    lambda_max: float = 1.2
    steps: int = 121
    fmt: str = "csv"
    out_dir: Path = Path(".")
    tol: float = DEFAULT_TOL
    hermitian_dipole: bool = False


_CONFIG_KEYS = (
    "command",
    "omega1",
    "omega2",
    "omega_c",
    "lambda",
    "lambda_min",
    "lambda_max",
    "steps",
    "n_max",
    "k_states",
    "format",
    "out",
    "tol",
    "hermitian_dipole",
)

_DEFAULTS = {
    "omega1": 0.0,
    "omega2": 1.0,
    "omega_c": 1.0,
    "lambda": 0.5,
    "lambda_min": 0.0,
    "lambda_max": 1.2,
    "steps": 121,
    "n_max": 14,
    "k_states": 7,
    "format": "csv",
    "tol": DEFAULT_TOL,
    "hermitian_dipole": False,
}


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports problems as UsageError instead of
    exiting the process."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="polariscope",
        description="Eigenspectra and observables of a two-level emitter "
        "coupled to a single cavity mode, with and without the "
        "rotating-wave approximation.",
    )
    parser.add_argument(
        "command",
        nargs="?",
        default=None,
        metavar="command",
        help=f"one of {', '.join(COMMANDS)} (may also come from the config file)",
    )
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="flat key=value config file")
    parser.add_argument("--omega1", type=float, default=None,
                        help="energy of |g> (default 0)")
    parser.add_argument("--omega2", type=float, default=None,
                        help="energy of |e> (default 1)")
    parser.add_argument("--omega-c", type=float, default=None, dest="omega_c",
                        help="cavity frequency (default 1)")
    parser.add_argument("--lambda", type=float, default=None, dest="lam",
                        help="coupling strength for spectrum/absorption/converge "
                        "(default 0.5)")
    parser.add_argument("--lambda-min", type=float, default=None,
                        help="sweep grid start (default 0)")
    parser.add_argument("--lambda-max", type=float, default=None,
                        help="sweep grid end (default 1.2)")
    parser.add_argument("--steps", type=int, default=None,
                        help="sweep grid points (default 121)")
    parser.add_argument("--n-max", type=int, default=None,
                        help="largest retained photon number (default 14)")
    parser.add_argument("--k-states", type=int, default=None,
                        help="states tracked per Hamiltonian (default 7)")
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="dataset format (default csv)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help=f"output directory (default ${_ENV_OUT} or .)")
    parser.add_argument("--tol", type=float, default=None,
                        help="eigensolver tolerance relative to the Frobenius "
                        "norm (default 1e-12)")
    parser.add_argument("--hermitian-dipole", action="store_true", default=None,
                        help="use mu + mu^dag instead of mu = |e><g| for "
                        "absorption intensities")
    return parser


def _convert(key: str, text: str):
    """Interpret a raw config-file string for a known key."""
    if key in ("omega1", "omega2", "omega_c", "lambda", "lambda_min",
               "lambda_max", "tol"):
        try:
            return float(text)
        except ValueError:
            raise UsageError(f"config key {key}: expected a number, got {text!r}") from None
    if key in ("steps", "n_max", "k_states"):
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"config key {key}: expected an integer, got {text!r}") from None
    if key == "hermitian_dipole":
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise UsageError(f"config key {key}: expected true/false, got {text!r}")
    return text


def parse_config(argv, config_file=None) -> RunConfig:
    """Resolve argv (plus an optional config file) into a RunConfig.

    Precedence is flags > config file > defaults.  Unknown config keys,
    malformed values, and missing/unknown commands raise UsageError;
    ModelParams invariant violations raise ValidationError.
    """
    ns = _build_parser().parse_args(list(argv))
    entries: dict[str, object] = {}
    cfg_path = config_file if config_file is not None else ns.config
    if cfg_path is not None:
        for key, text in parse_config_file(cfg_path).items():
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            entries[key] = _convert(key, text)

    def pick(flag_value, key):
        if flag_value is not None:
            return flag_value
        if key in entries:
            return entries[key]
        return _DEFAULTS.get(key)

    command = ns.command if ns.command is not None else entries.get("command")
    if command is None:
        raise UsageError(f"no command given; expected one of {', '.join(COMMANDS)}")
    if command not in COMMANDS:
        raise UsageError(
            f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}"
        )

    fmt = pick(ns.format, "format")
    if fmt not in FORMATS:
        raise UsageError(f"unknown format {fmt!r}; expected one of {FORMATS}")

    out = ns.out if ns.out is not None else entries.get("out")
    if out is None:
        out = os.environ.get(_ENV_OUT, ".")

    steps = pick(ns.steps, "steps")
    n_max = pick(ns.n_max, "n_max")
    k_states = pick(ns.k_states, "k_states")
    tol = pick(ns.tol, "tol")
    for name, value in (("steps", steps), ("n_max", n_max), ("k_states", k_states)):
        if value != int(value):
            raise UsageError(f"{name} must be an integer, got {value!r}")
    if not tol > 0:
        raise ValidationError(f"tol must be > 0, got {tol!r}")

    params = ModelParams(
        omega1=float(pick(ns.omega1, "omega1")),
        omega2=float(pick(ns.omega2, "omega2")),
        omega_c=float(pick(ns.omega_c, "omega_c")),
        lam=float(pick(ns.lam, "lambda")),
    )
    return RunConfig(
        command=command,
        params=params,
        n_max=int(n_max),
        k_states=int(k_states),
        lambda_min=float(pick(ns.lambda_min, "lambda_min")),
        lambda_max=float(pick(ns.lambda_max, "lambda_max")),
        steps=int(steps),
        fmt=fmt,
        out_dir=Path(out),
        tol=float(tol),
        hermitian_dipole=bool(pick(ns.hermitian_dipole, "hermitian_dipole")),
    )


def write_config(config: RunConfig, path) -> Path:
    """Write a RunConfig as a flat key=value file that parse_config reads
    back to an equal RunConfig."""
    lines = [
        f"command={config.command}",
        f"omega1={config.params.omega1!r}",
        f"omega2={config.params.omega2!r}",
        f"omega_c={config.params.omega_c!r}",
        f"lambda={config.params.lam!r}",
        f"lambda_min={config.lambda_min!r}",
        f"lambda_max={config.lambda_max!r}",
        f"steps={config.steps}",
        f"n_max={config.n_max}",
        f"k_states={config.k_states}",
        f"format={config.fmt}",
        f"out={config.out_dir}",
        f"tol={config.tol!r}",
        f"hermitian_dipole={'true' if config.hermitian_dipole else 'false'}",
    ]
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _grid(config: RunConfig) -> SweepGrid:
    return SweepGrid(
        lambda_min=config.lambda_min,
        lambda_max=config.lambda_max,
        steps=config.steps,
        params_base=config.params,
    )


def _emit(config: RunConfig, dataset: Dataset) -> Path:
    path = config.out_dir / f"{dataset.name}.{config.fmt}"
    emit_dataset(dataset.rows, dataset.columns, config.fmt, path)
    print(f"wrote {path}")
    return path


def _emit_with_script(config: RunConfig, dataset: Dataset) -> None:
    data_path = _emit(config, dataset)
    script_path = emit_plot_script(data_path, dataset.name)
    print(f"wrote {script_path}")


def _run_sweep_command(config: RunConfig, names) -> None:
    datasets = sweep_datasets(
        _grid(config), config.n_max, config.k_states, tol=config.tol
    )
    for name in names:
        _emit_with_script(config, datasets[name])


def _run_absorption(config: RunConfig) -> None:
    dataset = absorption_dataset(
        config.params,
        config.n_max,
        hermitian=config.hermitian_dipole,
        tol=config.tol,
    )
    lines_full = sum(1 for row in dataset.rows if row[0] == "full")
    lines_rwa = sum(1 for row in dataset.rows if row[0] == "rwa")
    print(
        f"lambda={config.params.lam:g}: {lines_full} full lines, "
        f"{lines_rwa} rwa lines above threshold"
    )
    _emit_with_script(config, dataset)


def _run_spectrum(config: RunConfig) -> None:
    basis = build_basis(config.n_max)
    columns = (
        "model",
        "index",
        "energy",
        "parity",
        "nu",
        "photon_number",
        "atomic_energy",
    )
    rows = []
    for model_name, solve in (("full", solve_rabi), ("rwa", solve_rwa)):
        eig = solve(config.params, basis, tol=config.tol)
        for k in range(min(config.k_states + 1, eig.dim)):
            vector = eig.eigenvectors[:, k]
            rows.append(
                (
                    model_name,
                    k,
                    float(eig.eigenvalues[k]),
                    eig.parities[k],
                    float(eig.eigenvalues[k] - eig.eigenvalues[0]),
                    photon_number(vector),
                    atomic_energy(vector, config.params),
                )
            )
    regime = classify_regime(config.params.lam, config.params.omega_c)
    print(
        f"lambda/omega_c = {config.params.lam / config.params.omega_c:g}: "
        f"{regime} coupling"
    )
    _emit(config, Dataset(name="spectrum", columns=columns, rows=tuple(rows)))


def _run_converge(config: RunConfig) -> None:
    ladder = [n for n in CONVERGE_LADDER if n < config.n_max] + [config.n_max]
    table = convergence_study(
        config.params, ladder, config.k_states, tol=config.tol
    )
    columns = (
        ["n_max"]
        + [f"e_{k}" for k in range(config.k_states)]
        + ["max_abs_dev"]
    )
    rows = [(row.n_max, *row.energies, row.max_abs_dev) for row in table]
    print(
        f"largest deviation vs n_max={table[-1].n_max}: "
        f"{max(row.max_abs_dev for row in table):.3e}"
    )
    _emit(config, Dataset(name="convergence", columns=tuple(columns), rows=tuple(rows)))


def _run_regimes(config: RunConfig) -> None:
    grid = _grid(config)
    columns = ("lambda", "ratio", "regime")
    rows = []
    for lam in grid.values():
        ratio = float(lam) / config.params.omega_c
        rows.append((float(lam), ratio, classify_regime(float(lam), config.params.omega_c)))
    _emit(config, Dataset(name="regimes", columns=columns, rows=tuple(rows)))


def _run(config: RunConfig) -> None:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if config.command == "spectrum":
        _run_spectrum(config)
    elif config.command == "sweep":
        _run_sweep_command(config, ("fig2", "fig3", "fig4_left", "fig4_right"))
    elif config.command == "observables":
        _run_sweep_command(config, ("fig4_left", "fig4_right"))
    elif config.command == "absorption":
        _run_absorption(config)
    elif config.command == "converge":
        _run_converge(config)
    elif config.command == "regimes":
        _run_regimes(config)
    else:  # unreachable after parse_config validation
        raise UsageError(f"unknown command {config.command!r}")


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        _run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 1
    except NonConvergence as exc:
        detail = f" at lambda={exc.lam:g}" if exc.lam is not None else ""
        print(f"eigensolver failed to converge{detail}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0
