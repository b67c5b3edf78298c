import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polariscope as ps
from polariscope.cli import SETTINGS, RunConfig, main, parse_config, write_config


def test_parse_defaults():
    config = parse_config(["spectrum", "--lambda", "0.5"])
    assert config.command == "spectrum"
    assert config.params == ps.ModelParams(omega1=0.0, omega2=1.0, omega_c=1.0, lam=0.5)
    assert config.n_max == 14
    assert config.k_states == 7
    assert config.fmt == "csv"
    assert config.tol == 1e-12
    assert config.hermitian_dipole is False


def test_parse_sweep_flags():
    config = parse_config(
        ["sweep", "--lambda-max", "0.9", "--steps", "13", "--n-max", "6"]
    )
    assert config.lambda_min == 0.0
    assert config.lambda_max == 0.9
    assert config.steps == 13
    assert config.n_max == 6


def test_parse_config_file_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command=sweep\nsteps=11\nlambda_max=0.8\nformat=json\n")
    config = parse_config(["--config", str(cfg), "--steps", "21"])
    assert config.command == "sweep"
    assert config.steps == 21  # flag beats config file
    assert config.lambda_max == 0.8  # config beats default
    assert config.fmt == "json"
    assert config.lambda_min == 0.0  # default fills the rest


#: Per setting: the flags that set it, the value they give, a config-file
#: value text and the value it gives, and where RunConfig holds it.  Written
#: out here rather than taken from SETTINGS, so that a wrong flag, key,
#: converter or field in any single table entry fails its case.
_BY_FLAG_AND_FILE = {
    "command": (["regimes"], "regimes", "spectrum", "spectrum", lambda c: c.command),
    "omega1": (["--omega1", "0.1"], 0.1, "0.2", 0.2, lambda c: c.params.omega1),
    "omega2": (["--omega2", "1.3"], 1.3, "1.4", 1.4, lambda c: c.params.omega2),
    "omega_c": (["--omega-c", "0.9"], 0.9, "0.8", 0.8, lambda c: c.params.omega_c),
    "lambda": (["--lambda", "0.3"], 0.3, "0.4", 0.4, lambda c: c.params.lam),
    "lambda_min": (["--lambda-min", "0.1"], 0.1, "0.2", 0.2, lambda c: c.lambda_min),
    "lambda_max": (["--lambda-max", "0.9"], 0.9, "0.8", 0.8, lambda c: c.lambda_max),
    "steps": (["--steps", "13"], 13, "17", 17, lambda c: c.steps),
    "n_max": (["--n-max", "6"], 6, "8", 8, lambda c: c.n_max),
    "k_states": (["--k-states", "3"], 3, "5", 5, lambda c: c.k_states),
    "format": (["--format", "csv"], "csv", "json", "json", lambda c: c.fmt),
    "out": (["--out", "flag_dir"], Path("flag_dir"), "file_dir", Path("file_dir"),
            lambda c: c.out_dir),
    "tol": (["--tol", "1e-11"], 1e-11, "1e-10", 1e-10, lambda c: c.tol),
    # the flag can only switch it on, so the file switches it off
    "hermitian_dipole": (["--hermitian-dipole"], True, "false", False,
                         lambda c: c.hermitian_dipole),
}


def test_precedence_cases_cover_every_setting():
    assert sorted(_BY_FLAG_AND_FILE) == sorted(setting.key for setting in SETTINGS)


@pytest.mark.parametrize("key", sorted(_BY_FLAG_AND_FILE))
def test_each_setting_by_flag_and_config_file(tmp_path, monkeypatch, key):
    monkeypatch.delenv("POLARISCOPE_OUT", raising=False)
    flags, flag_value, text, file_value, read = _BY_FLAG_AND_FILE[key]
    assert flag_value != file_value
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={text}\n" if key == "command" else f"command=sweep\n{key}={text}\n")
    command = [] if key == "command" else ["sweep"]
    for argv, expected in (
        (command + flags, flag_value),
        (["--config", str(cfg)], file_value),
        (["--config", str(cfg)] + flags, flag_value),  # flag beats config file
    ):
        value = read(parse_config(argv))
        assert value == expected and type(value) is type(expected), argv


def test_parse_command_line_overrides_config_command(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command=sweep\n")
    assert parse_config(["regimes", "--config", str(cfg)]).command == "regimes"


def test_parse_missing_command_errors():
    with pytest.raises(ps.UsageError):
        parse_config([])


def test_parse_unknown_command_errors():
    with pytest.raises(ps.UsageError):
        parse_config(["eigenstuff"])


def test_parse_unknown_flag_errors():
    with pytest.raises(ps.UsageError):
        parse_config(["spectrum", "--bogus", "1"])


def test_parse_unknown_config_key_errors(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command=sweep\nfrequency=2\n")
    with pytest.raises(ps.UsageError):
        parse_config(["--config", str(cfg)])


def test_parse_bad_config_value_errors(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command=sweep\nsteps=tiny\n")
    with pytest.raises(ps.UsageError):
        parse_config(["--config", str(cfg)])


def test_parse_invalid_physics_raises_validation():
    with pytest.raises(ps.ValidationError):
        parse_config(["spectrum", "--omega-c", "0"])


def test_env_out_dir_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("POLARISCOPE_OUT", str(tmp_path / "fromenv"))
    config = parse_config(["spectrum"])
    assert config.out_dir == tmp_path / "fromenv"
    config = parse_config(["spectrum", "--out", str(tmp_path / "flag")])
    assert config.out_dir == tmp_path / "flag"


def test_write_config_round_trip(tmp_path):
    original = RunConfig(
        command="sweep",
        params=ps.ModelParams(omega1=0.1, omega2=1.3, omega_c=0.9, lam=0.35),
        n_max=9,
        k_states=5,
        lambda_min=0.05,
        lambda_max=1.1,
        steps=37,
        fmt="json",
        out_dir=tmp_path / "results",
        tol=1e-11,
        hermitian_dipole=True,
    )
    path = write_config(original, tmp_path / "saved.cfg")
    assert parse_config(["--config", str(path)]) == original


def test_main_spectrum_writes_dataset(tmp_path, capsys):
    code = main(
        ["spectrum", "--lambda", "0.5", "--n-max", "6", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "strong coupling" in out
    data = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert data[0] == "model,index,energy,parity,nu,photon_number,atomic_energy"
    full_rows = [line for line in data[1:] if line.startswith("full,")]
    rwa_rows = [line for line in data[1:] if line.startswith("rwa,")]
    assert len(full_rows) == len(rwa_rows) == 8  # k_states + 1
    assert full_rows[0].split(",")[3] == "even"


def test_main_sweep_writes_figures_and_scripts(tmp_path):
    code = main(
        [
            "sweep",
            "--steps", "5",
            "--lambda-max", "0.8",
            "--n-max", "5",
            "--k-states", "4",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    for name in ("fig2", "fig3", "fig4_left", "fig4_right"):
        data = tmp_path / f"{name}.csv"
        script = tmp_path / f"plot_{name}.py"
        assert data.exists()
        assert script.exists()
        compile(script.read_text(), str(script), "exec")
    header = (tmp_path / "fig2.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "lambda"
    assert header.split(",")[-1] == "regime"


def test_main_observables_writes_fig4_only(tmp_path):
    code = main(
        [
            "observables",
            "--steps", "3",
            "--lambda-max", "0.6",
            "--n-max", "5",
            "--k-states", "4",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "fig4_left.csv").exists()
    assert (tmp_path / "fig4_right.csv").exists()
    assert not (tmp_path / "fig2.csv").exists()


def test_main_absorption_json(tmp_path, capsys):
    code = main(
        [
            "absorption",
            "--lambda", "0.5",
            "--format", "json",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "full lines" in out
    payload = json.loads((tmp_path / "fig5.json").read_text())
    models = {row["model"] for row in payload}
    assert models == {"full", "rwa"}
    assert (tmp_path / "plot_fig5.py").exists()


def test_main_converge(tmp_path, capsys):
    code = main(
        ["converge", "--lambda", "1.0", "--n-max", "10", "--k-states", "4",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert "largest deviation" in capsys.readouterr().out
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n_max,e_0,e_1,e_2,e_3,max_abs_dev"
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "6", "8", "10"]
    assert float(lines[-1].split(",")[-1]) == 0.0


def test_main_regimes(tmp_path):
    code = main(
        ["regimes", "--steps", "16", "--lambda-max", "1.5", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "regimes.csv").read_text().splitlines()
    assert lines[0] == "lambda,ratio,regime"
    assert lines[1].split(",")[2] == "moderate"
    assert lines[-1].split(",")[2] == "deep-strong"


def test_main_usage_error_exit_code(capsys):
    assert main([]) == 1
    assert main(["eigenstuff"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_main_validation_error_exit_code(capsys):
    assert main(["spectrum", "--omega-c", "0"]) == 1
    assert "invalid parameters" in capsys.readouterr().err


def test_main_nonconvergence_exit_code(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ps.NonConvergence("no convergence after 64 sweeps", residual=1.0)

    monkeypatch.setattr("polariscope.cli.solve_rabi", explode)
    code = main(["spectrum", "--out", str(tmp_path)])
    assert code == 2
    assert "converge" in capsys.readouterr().err


def test_main_tiny_tol_trips_the_residual_check(tmp_path, capsys):
    # the structured solvers hold every eigenpair residual to tol * ||H||_F;
    # rounding alone leaves ~1e-16 of ||H||_F, far above 1e-30
    code = main(["spectrum", "--tol", "1e-30", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "converge" in err
    assert "lambda=0.5" in err
    assert not (tmp_path / "spectrum.csv").exists()


def test_main_sweep_tiny_tol_names_the_first_failing_coupling(tmp_path, capsys):
    # lam = 0 solves exactly (residual 0); the next grid point fails first
    code = main(["sweep", "--tol", "1e-30", "--steps", "5", "--out", str(tmp_path)])
    assert code == 2
    assert "at lambda=0.3:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _run_module(argv):
    """``python -m polariscope argv`` in a subprocess, whose stderr shows
    what numpy prints."""
    src = Path(ps.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "polariscope", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )


def test_main_overflowing_solver_exits_2_without_runtime_warnings(tmp_path):
    # energies near 1e-140 overflow inverse iteration; the run must fail
    # with exit code 2 and nothing from numpy on stderr
    args = ["spectrum", "--omega2", "1e-140", "--omega-c", "1e-140", "--lambda", "1e-140"]
    result = _run_module([*args, "--n-max", "2", "--out", str(tmp_path)])
    assert result.returncode == 2
    assert "eigensolver failed to converge at lambda=1e-140" in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, coupling",
    [
        (["--omega2", "1e-140", "--omega-c", "1e-140", "--lambda", "1e-140"], "1e-140"),
        (["--tol", "1e-30"], "0.5"),
    ],
)
def test_main_converge_failure_exits_2_without_runtime_warnings(tmp_path, args, coupling):
    # the ladder is bisected as one array with its shorter rungs padded by
    # infinite rows; neither an overflow nor the padding's inf - inf may
    # print anything from numpy, and no dataset is written
    result = _run_module(["converge", *args, "--out", str(tmp_path)])
    assert result.returncode == 2
    assert f"eigensolver failed to converge at lambda={coupling}:" in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, coupling",
    [
        ("spectrum", "0.5"),
        ("sweep", "0"),
        ("observables", "0"),
        ("absorption", "0.5"),
        ("converge", "0.5"),
    ],
)
def test_main_energies_past_the_float_range_exit_2_without_runtime_warnings(
    tmp_path, command, coupling
):
    # omega_c (n + 1/2) overflows to inf within the ladder; the chain
    # arrays and residuals that carry it print nothing from numpy, and the
    # residual check rejects the first coupling of the run
    args = [command, "--omega-c", "1e307", "--lambda", "0.5", "--n-max", "40"]
    result = _run_module([*args, "--out", str(tmp_path)])
    assert result.returncode == 2
    assert f"eigensolver failed to converge at lambda={coupling}:" in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, coupling",
    [
        (["spectrum", "--lambda", "1e307"], "1e+307"),
        (["converge", "--lambda", "1e307"], "1e+307"),
        (["absorption", "--lambda", "1e307"], "1e+307"),
        (["sweep", "--lambda-max", "1e307", "--steps", "3"], "5e+306"),
        (["observables", "--lambda-max", "1e307", "--steps", "3"], "5e+306"),
    ],
)
def test_main_couplings_past_the_float_range_exit_2_without_runtime_warnings(
    tmp_path, args, coupling
):
    # lam**2 overflows in the Sturm count and in the LDL^T pivots of
    # inverse iteration; neither may print anything from numpy, and the
    # residual check rejects the first such coupling of the run
    result = _run_module([*args, "--out", str(tmp_path)])
    assert result.returncode == 2
    assert f"eigensolver failed to converge at lambda={coupling}:" in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_main_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("i am a file\n")
    code = main(["regimes", "--steps", "3", "--out", str(blocker / "sub")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_main_deterministic_output_bytes(tmp_path):
    args = ["absorption", "--lambda", "0.5", "--n-max", "8"]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a_dir)]) == 0
    assert main(args + ["--out", str(b_dir)]) == 0
    assert (a_dir / "fig5.csv").read_bytes() == (b_dir / "fig5.csv").read_bytes()
