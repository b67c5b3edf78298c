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
from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .errors import NonConvergence, UsageError, ValidationError
from .eigensolve import DEFAULT_TOL, _check_tol
from .experiments import (
    Dataset,
    SweepGrid,
    absorption_dataset,
    convergence_study,
    sweep_datasets,
)
from .io import FORMATS, atomic_write, emit_dataset, emit_plot_script, parse_config_file
from .model import ModelParams, build_basis
from .observables import atomic_energy, photon_number
from .spectra import classify_regime, solve_rabi, solve_rwa

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
    n_max: int
    k_states: int
    lambda_min: float
    lambda_max: float
    steps: int
    fmt: str
    out_dir: Path
    tol: float
    hermitian_dipole: bool


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(text)


@dataclass(frozen=True)
class _Kind:
    """How a setting's value is read from text and written back as text."""

    parse: Callable[[str], object]
    expected: str
    format: Callable[[object], str] = str


_FLOAT = _Kind(float, "a number", repr)
_INT = _Kind(int, "an integer")
_TEXT = _Kind(str, "text")
_PATH = _Kind(Path, "a path")
_BOOL = _Kind(_parse_bool, "true/false", lambda value: "true" if value else "false")


@dataclass(frozen=True)
class _Setting:
    """One setting: its config-file key, its flag (a bare name for the
    positional argument), the RunConfig attribute it fills (``params.x``
    for a ModelParams field), its kind, default and help text, and the
    values it may take (any, when empty).  A callable default is evaluated
    at parse time."""

    key: str
    flag: str
    field: str
    kind: _Kind
    default: object
    help: str
    choices: tuple[str, ...] = ()


#: Every CLI setting, in ``write_config`` order.
SETTINGS = (
    _Setting("command", "command", "command", _TEXT, None,
             "what to run (may also come from the config file)", COMMANDS),
    _Setting("omega1", "--omega1", "params.omega1", _FLOAT, 0.0, "energy of |g>"),
    _Setting("omega2", "--omega2", "params.omega2", _FLOAT, 1.0, "energy of |e>"),
    _Setting("omega_c", "--omega-c", "params.omega_c", _FLOAT, 1.0, "cavity frequency"),
    _Setting("lambda", "--lambda", "params.lam", _FLOAT, 0.5,
             "coupling strength for spectrum/absorption/converge"),
    _Setting("lambda_min", "--lambda-min", "lambda_min", _FLOAT, 0.0, "sweep grid start"),
    _Setting("lambda_max", "--lambda-max", "lambda_max", _FLOAT, 1.2, "sweep grid end"),
    _Setting("steps", "--steps", "steps", _INT, 121, "sweep grid points"),
    _Setting("n_max", "--n-max", "n_max", _INT, 14, "largest retained photon number"),
    _Setting("k_states", "--k-states", "k_states", _INT, 7,
             "states tracked per Hamiltonian"),
    _Setting("format", "--format", "fmt", _TEXT, "csv", "dataset format", FORMATS),
    _Setting("out", "--out", "out_dir", _PATH,
             lambda: Path(os.environ.get(_ENV_OUT, ".")),
             f"output directory (default ${_ENV_OUT} or .)"),
    _Setting("tol", "--tol", "tol", _FLOAT, DEFAULT_TOL,
             "eigensolver tolerance relative to the Frobenius norm"),
    _Setting("hermitian_dipole", "--hermitian-dipole", "hermitian_dipole", _BOOL, False,
             "use mu + mu^dag instead of mu = |e><g| for absorption intensities"),
)


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
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="flat key=value config file")
    for setting in SETTINGS:
        help_text = setting.help
        if setting.choices:
            help_text += f"; one of {', '.join(setting.choices)}"
        if setting.default is not None and not callable(setting.default):
            help_text += f" (default {setting.kind.format(setting.default)})"
        options = {"default": None, "help": help_text}
        if not setting.flag.startswith("-"):
            options.update(nargs="?", metavar=setting.key)
        elif setting.kind is _BOOL:
            options.update(action="store_true", dest=setting.key)
        else:
            options.update(type=setting.kind.parse, dest=setting.key)
        parser.add_argument(setting.flag, **options)
    return parser


def parse_config(argv) -> RunConfig:
    """Resolve argv (and the ``--config`` file it names) into a RunConfig.

    Precedence is flags > config file > defaults.  Unknown config keys,
    malformed values, and missing/unknown commands raise UsageError;
    ModelParams invariant violations raise ValidationError.
    """
    flags = vars(_build_parser().parse_args(list(argv)))
    entries: dict[str, object] = {}
    if flags["config"] is not None:
        kinds = {setting.key: setting.kind for setting in SETTINGS}
        for key, text in parse_config_file(flags["config"]).items():
            if key not in kinds:
                raise UsageError(f"unknown config key {key!r}")
            try:
                entries[key] = kinds[key].parse(text)
            except ValueError:
                raise UsageError(
                    f"config key {key}: expected {kinds[key].expected}, got {text!r}"
                ) from None

    config_fields: dict[str, object] = {}
    model_fields: dict[str, object] = {}
    for setting in SETTINGS:
        value = flags[setting.key]
        if value is None:
            value = entries.get(setting.key, setting.default)
            if callable(value):
                value = value()
        choices = ", ".join(setting.choices)
        if value is None:
            raise UsageError(f"no {setting.key} given; expected one of {choices}")
        if setting.choices and value not in setting.choices:
            raise UsageError(f"unknown {setting.key} {value!r}; expected one of {choices}")
        owner, _, name = setting.field.rpartition(".")
        (model_fields if owner else config_fields)[name] = value
    _check_tol(config_fields["tol"])
    return RunConfig(params=ModelParams(**model_fields), **config_fields)


def write_config(config: RunConfig, path) -> Path:
    """Write a RunConfig as a flat key=value file that parse_config reads
    back to an equal RunConfig."""
    text = "".join(
        f"{setting.key}={setting.kind.format(attrgetter(setting.field)(config))}\n"
        for setting in SETTINGS
    )
    with atomic_write(path) as fh:
        fh.write(text)
    return Path(path)


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
