"""Byte-deterministic dataset emission, config-file parsing, and emitted
plot scripts.

CSV output uses comma separation, ``\\n`` line endings, a ``.`` decimal
point, and shortest round-trip float formatting; JSON output is an array of
objects with the same field names and values.  Identical input always
produces identical bytes.

A plain ``float`` cell (``type(v) is float``; ``numpy.float64`` subclasses
float but has its own repr) is written as its ``repr``, memoized per file.
The memo is exact: equal floats have equal bits, and so the same repr,
except 0.0 and -0.0, which are never stored; NaN equals nothing, and every
NaN is written ``nan``.  Other cells go through ``format_value``.  A row's
cells are joined by commas, unless ``csv.writer`` would quote one of them
(a cell holding a comma, a quote or a line break, or the cell of a row of
one empty field); such a row is written by ``csv.writer`` itself, so the
bytes are always those of ``csv.writer`` with ``\n`` line endings.  Each
file is written in one piece.

Plot scripts are standalone matplotlib programs written next to the data;
the package itself never renders anything.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import SchemaMismatch, UsageError

FORMATS = ("csv", "json")


@contextmanager
def atomic_write(path):
    """Open a text file that replaces ``path`` only once it is fully written.

    The text goes to a temporary file in the target directory, which
    ``os.replace`` moves over ``path`` when the block ends without error.  If
    anything raises, the temporary file is removed and ``path`` keeps what
    it held before.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _native(value):
    """The plain Python value a cell is written as: an enum's label, a
    numpy scalar's ``item()``, or a str, int or float as it is."""
    if type(value) is float:
        return value
    if isinstance(value, Enum):
        return str(value)
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (str, int, float)):
        return value
    raise SchemaMismatch(f"cannot write value of type {type(value).__name__}")


def format_value(value) -> str:
    """Render one cell: shortest round-trip decimals for floats, labels for
    enums, and plain text otherwise."""
    value = _native(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    # repr() of a float is its shortest round-trip decimal form
    return repr(value) if isinstance(value, float) else str(value)


class _FloatTexts(dict):
    """The ``repr`` of each plain float looked up, memoized.  0.0 and -0.0
    are equal but their reprs differ, so neither is stored."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


class _Lines(list):
    """A list that ``csv.writer`` writes its lines to."""

    write = list.append


def _csv_cells(row, texts: _FloatTexts) -> list[str]:
    """The ``format_value`` texts of ``row``, taking plain float texts from
    ``texts``."""
    return [texts[v] if type(v) is float else format_value(v) for v in row]


def _csv_line(row, texts: _FloatTexts) -> str | None:
    """The CSV line of ``row``, its cells joined by commas, or None when
    ``csv.writer`` would quote a cell: one that holds a comma, a quote or a
    line break, or the cell of a row of one empty field.

    A row of plain floats is joined straight from the memo, since no float
    text needs quoting; the type check matters, because an IntEnum cell
    equals, and hashes as, the float of its value.
    """
    if set(map(type, row)) == {float}:
        return ",".join(map(texts.__getitem__, row)) + "\n"
    cells = _csv_cells(row, texts)
    line = ",".join(cells)
    if cells == [""] or line.count(",") >= len(cells) or any(c in line for c in '"\r\n'):
        return None
    return line + "\n"


def emit_dataset(rows, schema, fmt: str, path) -> Path:
    """Write rows under a column schema as CSV or JSON.

    Every row must have exactly one value per schema column; each row is
    checked before anything is written, and a failed check raises
    SchemaMismatch with ``path`` left as it was (see ``atomic_write``).
    The file is written in one piece.  Returns the written path.
    """
    if fmt not in FORMATS:
        raise UsageError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    schema = list(schema)
    path = Path(path)
    if fmt == "csv":
        lines = _Lines()
        writer = csv.writer(lines, lineterminator="\n")
        writer.writerow(schema)
        texts = _FloatTexts()
    payload = []
    for i, row in enumerate(rows):
        row = tuple(row)
        if len(row) != len(schema):
            raise SchemaMismatch(f"row {i} has {len(row)} fields, schema has {len(schema)}")
        if fmt == "json":
            payload.append({name: _native(v) for name, v in zip(schema, row)})
        elif (line := _csv_line(row, texts)) is not None:
            lines.append(line)
        else:
            writer.writerow(_csv_cells(row, texts))
    with atomic_write(path) as fh:
        if fmt == "csv":
            fh.write("".join(lines))
        else:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return path


def parse_config_file(path) -> dict[str, str]:
    """Read a flat key=value config file with ``#`` comments.

    Blank lines are skipped; text after ``#`` is ignored; duplicate keys are
    rejected.  Values come back as raw strings for the caller to interpret.
    """
    entries: dict[str, str] = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key:
                raise UsageError(
                    f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
                )
            if key in entries:
                raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value
    return entries


FIGURE_IDS = ("fig2", "fig3", "fig4_left", "fig4_right", "fig5")

_LOADER = '''\
import csv
import json


def load_rows(path):
    if path.endswith(".json"):
        with open(path) as fh:
            return json.load(fh)
    with open(path, newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


def col(rows, name):
    return [float(row[name]) for row in rows]


def indexed_cols(rows, prefix):
    names = sorted(
        (name for name in rows[0] if name.startswith(prefix + "_")
         and name[len(prefix) + 1:].isdigit()),
        key=lambda name: int(name.rsplit("_", 1)[1]),
    )
    return [(int(name.rsplit("_", 1)[1]), col(rows, name)) for name in names]
'''

_FIG2_BODY = '''\
rows = load_rows(DATA)
lam = col(rows, "lambda")
fig, ax = plt.subplots(figsize=(6.0, 4.5))
rwa = indexed_cols(rows, "e_rwa_tracked")[:3]
full = indexed_cols(rows, "e_full_tracked")[:3]
for k, values in rwa:
    ax.plot(lam, values, "-", label=f"RWA state {k}")
for k, values in full:
    ax.plot(lam, values, "--", label=f"full state {k}")
ax.set_xlabel(r"$\\lambda/\\omega_c$")
ax.set_ylabel(r"energy $/\\omega_c$")
ax.set_title("Lowest eigenenergies vs coupling (solid RWA, dashed full)")
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig(OUT, dpi=150)
print(f"wrote {OUT}")
'''

_FIG3_BODY = '''\
rows = load_rows(DATA)
lam = col(rows, "lambda")
fig, ax = plt.subplots(figsize=(6.0, 4.5))
ax.plot(lam, col(rows, "peak_rwa_1"), "-", label="RWA peak 1")
ax.plot(lam, col(rows, "peak_rwa_2"), "-", label="RWA peak 2")
ax.plot(lam, col(rows, "peak_full_1"), "--", label="full peak 1")
ax.plot(lam, col(rows, "peak_full_2"), "--", label="full peak 2")
ax.set_xlabel(r"$\\lambda/\\omega_c$")
ax.set_ylabel(r"transition frequency $\\nu/\\omega_c$")
ax.set_title("Lowest two absorption peak positions")
ax.legend(fontsize=8)
inset = ax.inset_axes([0.12, 0.58, 0.35, 0.35])
inset.plot(lam, col(rows, "delta_nu_rwa"), "-", label="RWA")
inset.plot(lam, col(rows, "delta_nu_full"), "--", label="full")
inset.set_xlabel(r"$\\lambda/\\omega_c$", fontsize=7)
inset.set_ylabel(r"$\\Delta\\nu$", fontsize=7)
inset.tick_params(labelsize=7)
fig.tight_layout()
fig.savefig(OUT, dpi=150)
print(f"wrote {OUT}")
'''

_FIG4_LEFT_BODY = '''\
rows = load_rows(DATA)
lam = col(rows, "lambda")
fig, ax = plt.subplots(figsize=(6.0, 4.5))
for k, values in indexed_cols(rows, "nbar_full_tracked"):
    ax.plot(lam, values, "-", label=f"full state {k}")
for k, values in indexed_cols(rows, "nbar_rwa_tracked"):
    ax.plot(lam, values, ":", label=f"RWA state {k}")
ax.set_xlabel(r"$\\lambda/\\omega_c$")
ax.set_ylabel(r"$\\bar{n} = \\langle a^\\dagger a \\rangle$")
ax.set_title("Average photon number per eigenstate")
ax.legend(fontsize=7, ncol=2)
fig.tight_layout()
fig.savefig(OUT, dpi=150)
print(f"wrote {OUT}")
'''

_FIG4_RIGHT_BODY = '''\
rows = load_rows(DATA)
lam = col(rows, "lambda")
fig, ax = plt.subplots(figsize=(6.0, 4.5))
for k, values in indexed_cols(rows, "eatom_full_tracked"):
    ax.plot(lam, values, "-", label=f"full state {k}")
for k, values in indexed_cols(rows, "eatom_rwa_tracked"):
    ax.plot(lam, values, ":", label=f"RWA state {k}")
ax.set_xlabel(r"$\\lambda/\\omega_c$")
ax.set_ylabel("average atomic energy")
ax.set_title("Average energy stored in the atom per eigenstate")
ax.legend(fontsize=7, ncol=2)
fig.tight_layout()
fig.savefig(OUT, dpi=150)
print(f"wrote {OUT}")
'''

_FIG5_BODY = '''\
rows = load_rows(DATA)
full = sorted(
    (r for r in rows if r["model"] == "full"), key=lambda r: float(r["frequency"])
)
rwa = sorted(
    (r for r in rows if r["model"] == "rwa"), key=lambda r: float(r["frequency"])
)
fig, ax = plt.subplots(figsize=(6.0, 4.5))
for i, row in enumerate(full):
    freq = float(row["frequency"])
    height = float(row["intensity"])
    # Third and fourth lines are drawn x10 so they stay visible next to the
    # dominant doublet (enhancement is cosmetic; the data file is untouched).
    if i in (2, 3):
        height *= 10.0
        ax.plot([freq], [height], "rv", markersize=4)
    ax.vlines(freq, 0.0, height, colors="red", linestyles="solid",
              label="full" if i == 0 else None)
for i, row in enumerate(rwa):
    freq = float(row["frequency"])
    ax.vlines(freq, 0.0, float(row["intensity"]), colors="blue",
              linestyles="dashed", label="RWA" if i == 0 else None)
ax.set_xlabel(r"frequency $/\\omega_c$")
ax.set_ylabel("relative intensity")
ax.set_title("Cavity absorption sticks (marked lines scaled x10)")
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig(OUT, dpi=150)
print(f"wrote {OUT}")
'''

_FIGURE_BODIES = {
    "fig2": _FIG2_BODY,
    "fig3": _FIG3_BODY,
    "fig4_left": _FIG4_LEFT_BODY,
    "fig4_right": _FIG4_RIGHT_BODY,
    "fig5": _FIG5_BODY,
}


def emit_plot_script(data_path, figure_id: str, path=None) -> Path:
    """Write a standalone matplotlib script that renders one figure.

    The script reads the dataset at ``data_path`` (CSV or JSON) and saves a
    PNG next to itself.  Raises UsageError for an unknown figure id or a
    missing dataset.
    """
    if figure_id not in _FIGURE_BODIES:
        raise UsageError(
            f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}"
        )
    data_path = Path(data_path)
    if not data_path.exists():
        raise UsageError(f"dataset {data_path} does not exist")
    if path is None:
        path = data_path.with_name(f"plot_{figure_id}.py")
    path = Path(path)
    out_png = data_path.with_suffix(".png").name
    header = (
        '"""Render {fig} from {data}.  Generated file; requires matplotlib."""\n'
        "\n"
        "import os.path\n"
        "\n"
        "import matplotlib\n"
        'matplotlib.use("Agg")\n'
        "import matplotlib.pyplot as plt\n"
        "\n"
        "HERE = os.path.dirname(os.path.abspath(__file__))\n"
        "DATA = os.path.join(HERE, {data!r})\n"
        "OUT = os.path.join(HERE, {png!r})\n"
    ).format(fig=figure_id, data=data_path.name, png=out_png)
    script = header + "\n" + _LOADER + "\n\n" + _FIGURE_BODIES[figure_id]
    with atomic_write(path) as fh:
        fh.write(script)
    return path
