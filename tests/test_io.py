import csv
import io
import json
from enum import Enum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polariscope as ps
from polariscope import ModelParams, Regime
from polariscope.io import atomic_write, format_value


def _tiny_dataset():
    return ps.Dataset(
        name="fig_test",
        columns=("lambda", "value", "regime"),
        rows=((0.1, 1.0 / 3.0, Regime.MODERATE), (0.7, -2.5e-17, Regime.ULTRA_STRONG)),
    )


def test_format_value_round_trips_floats():
    for v in (0.1, 1.0 / 3.0, 1e-17, 123456.789, 2.0**-52, -0.0, 5e-324):
        assert float(format_value(v)) == v
    # numpy scalars must not leak their repr wrapper
    assert format_value(np.float64(0.1)) == "0.1"
    assert format_value(np.int64(3)) == "3"


def test_format_value_non_floats():
    assert format_value(Regime.STRONG) == "strong"
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(7) == "7"
    assert format_value("full") == "full"


def test_emit_csv_contents(tmp_path):
    path = ps.emit_dataset(
        _tiny_dataset().rows, ("lambda", "value", "regime"), "csv", tmp_path / "t.csv"
    )
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "lambda,value,regime"
    assert lines[1].startswith("0.1,")
    assert lines[1].endswith(",moderate")
    assert float(lines[1].split(",")[1]) == 1.0 / 3.0
    assert text.endswith("\n")
    assert "\r" not in path.read_bytes().decode()


def test_emit_csv_empty_rows_header_only(tmp_path):
    path = ps.emit_dataset([], ("a", "b"), "csv", tmp_path / "empty.csv")
    assert path.read_text() == "a,b\n"


def test_emit_json_round_trip(tmp_path):
    dataset = _tiny_dataset()
    path = ps.emit_dataset(dataset.rows, dataset.columns, "json", tmp_path / "t.json")
    loaded = json.loads(path.read_text())
    assert loaded[0] == {"lambda": 0.1, "value": 1.0 / 3.0, "regime": "moderate"}
    assert loaded[1]["value"] == -2.5e-17
    assert loaded[1]["regime"] == "ultra-strong"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_deterministic_bytes(tmp_path, fmt):
    dataset = _tiny_dataset()
    a = ps.emit_dataset(dataset.rows, dataset.columns, fmt, tmp_path / f"a.{fmt}")
    b = ps.emit_dataset(dataset.rows, dataset.columns, fmt, tmp_path / f"b.{fmt}")
    assert a.read_bytes() == b.read_bytes()


def test_emit_schema_mismatch(tmp_path):
    with pytest.raises(ps.SchemaMismatch):
        ps.emit_dataset([(1.0,)], ("a", "b"), "csv", tmp_path / "bad.csv")


@pytest.mark.parametrize(
    "fmt, bad_row",
    [
        pytest.param("csv", (None,), id="csv"),
        pytest.param("json", (None,), id="json"),
        pytest.param("csv", (2.0, 3.0), id="csv-length"),
        pytest.param("json", (2.0, 3.0), id="json-length"),
    ],
)
def test_failed_emit_keeps_the_existing_file(tmp_path, fmt, bad_row):
    # the second row fails to format, or has the wrong length, after the
    # first is written
    path = ps.emit_dataset([(1.0,), (2.0,)], ["x"], fmt, tmp_path / f"x.{fmt}")
    before = path.read_bytes()
    with pytest.raises(ps.SchemaMismatch):
        ps.emit_dataset([(1.0,), bad_row], ["x"], fmt, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_emit_json_numpy_scalars(tmp_path):
    cells = (np.bool_(True), np.int64(-7), np.float32(0.1), np.float64(1.0 / 3.0))
    path = ps.emit_dataset([cells], ("b", "i", "f32", "f64"), "json", tmp_path / "n.json")
    text = path.read_text()
    assert '"b": true' in text
    assert '"i": -7' in text
    loaded = json.loads(text)[0]
    assert loaded == {"b": True, "i": -7, "f32": float(np.float32(0.1)), "f64": 1.0 / 3.0}
    assert type(loaded["i"]) is int


def _plain(value):
    """A cell as JSON holds it, written out here apart from the library: an
    enum's label, a numpy scalar's ``item()``, anything else as it is."""
    if isinstance(value, Enum):
        return str(value)
    return value.item() if isinstance(value, np.generic) else value


def _reference_text(rows, schema, fmt):
    """What emit_dataset must write: csv.writer over format_value cells, or
    json.dump over plain cells."""
    out = io.StringIO(newline="")
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(schema)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
    else:
        payload = [{name: _plain(v) for name, v in zip(schema, row)} for row in rows]
        json.dump(payload, out, indent=2)
        out.write("\n")
    return out.getvalue()


# A small pool, so values repeat within a file and the float memo hits.
_FLOAT_POOL = (
    0.0, -0.0, 0.1, -0.1, 1.0 / 3.0, 1.0, 5e-324, -5e-324, 2.2e-308, 1e308,
    -1e308, float("inf"), float("-inf"), float("nan"),
)
_CELLS = st.one_of(
    st.sampled_from(_FLOAT_POOL),
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.sampled_from(Regime),
    st.sampled_from(_FLOAT_POOL).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(st.sampled_from([",", '"', "\r", "\n", "a", " ", "\u00e9"]), max_size=4),
)
_TABLES = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.tuples(*[_CELLS] * width), max_size=8)
)
_MIXED_ROWS = [
    (0.0, -0.0, 0.1, np.float64(0.1)),
    (-0.0, 0.0, 0.1, np.float64(-0.0)),
    (float("nan"), float("inf"), float("-inf"), 1e308),
    (5e-324, -5e-324, 2.2e-308, np.int64(-3)),
    (7, True, Regime.STRONG, "a,b"),
    ('say "hi"', "cr\r", "lf\n", ""),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=_TABLES)
@example(rows=_MIXED_ROWS)
@example(rows=[("",), (0.0,), (-0.0,), ("",)])
def test_emit_matches_the_reference_writer(tmp_path_factory, fmt, rows):
    schema = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
    # each example replaces the previous file
    path = tmp_path_factory.getbasetemp() / f"emit.{fmt}"
    ps.emit_dataset(rows, schema, fmt, path)
    assert path.read_bytes() == _reference_text(rows, schema, fmt).encode("utf-8")


def _real_datasets():
    datasets = list(ps.sweep_datasets(ps.SweepGrid()).values())
    datasets.append(ps.absorption_dataset(ModelParams(lam=0.5)))
    table = ps.convergence_study(ModelParams(lam=1.0), [10, 20, 30])
    rows = tuple((row.n_max, *row.energies, row.max_abs_dev) for row in table)
    columns = ("n_max", *(f"e_{k}" for k in range(7)), "max_abs_dev")
    datasets.append(ps.Dataset(name="convergence", columns=columns, rows=rows))
    return datasets


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_real_datasets_match_the_reference_writer(tmp_path, fmt):
    # the converge rows carry numpy.float64 energies, whose repr is not the
    # float's; fig2 ends each row with a Regime and fig5 starts with a str
    for dataset in _real_datasets():
        path = ps.emit_dataset(
            dataset.rows, dataset.columns, fmt, tmp_path / f"{dataset.name}.{fmt}"
        )
        expected = _reference_text(dataset.rows, dataset.columns, fmt)
        assert path.read_bytes() == expected.encode("utf-8"), dataset.name


def test_atomic_write_replaces_only_on_success(tmp_path):
    path = tmp_path / "kept.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_emit_unknown_format(tmp_path):
    with pytest.raises(ps.UsageError):
        ps.emit_dataset([], ("a",), "yaml", tmp_path / "bad.yaml")


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "command = sweep\n"
        "lambda_max=0.9   # trailing comment\n"
        "steps = 13\n"
    )
    entries = ps.parse_config_file(path)
    assert entries == {"command": "sweep", "lambda_max": "0.9", "steps": "13"}


def test_parse_config_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\n")
    with pytest.raises(ps.UsageError):
        ps.parse_config_file(path)


def test_parse_config_file_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("steps=3\nsteps=4\n")
    with pytest.raises(ps.UsageError):
        ps.parse_config_file(path)


def test_parse_config_file_missing(tmp_path):
    with pytest.raises(ps.UsageError):
        ps.parse_config_file(tmp_path / "nope.cfg")


def _emit_fig5(tmp_path, fmt="csv"):
    dataset = ps.absorption_dataset(ModelParams(lam=0.5), n_max=6)
    return ps.emit_dataset(
        dataset.rows, dataset.columns, fmt, tmp_path / f"fig5.{fmt}"
    )


@pytest.mark.parametrize("figure_id", ["fig2", "fig3", "fig4_left", "fig4_right"])
def test_emit_plot_script_sweep_figures(tmp_path, figure_id):
    grid = ps.SweepGrid(steps=3, lambda_max=0.6)
    datasets = ps.sweep_datasets(grid, n_max=5, k_states=4)
    data_path = ps.emit_dataset(
        datasets[figure_id].rows,
        datasets[figure_id].columns,
        "csv",
        tmp_path / f"{figure_id}.csv",
    )
    script = ps.emit_plot_script(data_path, figure_id)
    assert script == tmp_path / f"plot_{figure_id}.py"
    source = script.read_text()
    compile(source, str(script), "exec")
    assert "matplotlib" in source
    assert data_path.name in source


def test_emit_plot_script_fig5(tmp_path):
    data_path = _emit_fig5(tmp_path)
    script = ps.emit_plot_script(data_path, "fig5", tmp_path / "custom.py")
    assert script == tmp_path / "custom.py"
    compile(script.read_text(), str(script), "exec")


def test_emit_plot_script_json_source(tmp_path):
    data_path = _emit_fig5(tmp_path, fmt="json")
    script = ps.emit_plot_script(data_path, "fig5")
    compile(script.read_text(), str(script), "exec")


def test_emit_plot_script_unknown_figure(tmp_path):
    data_path = _emit_fig5(tmp_path)
    with pytest.raises(ps.UsageError):
        ps.emit_plot_script(data_path, "fig9")


def test_emit_plot_script_missing_data(tmp_path):
    with pytest.raises(ps.UsageError):
        ps.emit_plot_script(tmp_path / "absent.csv", "fig5")
