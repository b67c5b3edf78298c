"""Golden outputs: the sha256 of every file and of the standard output of a
fixed set of CLI runs, checked in as ``golden_outputs.json`` beside this
file, with the Python and numpy versions they were made under.

``test_golden.py`` runs them through ``cli.main`` and compares.  A change
that moves output bits on purpose regenerates the file with

    PYTHONPATH=src python tests/golden.py

and logs the moved files, and the bound of the move, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from polariscope.cli import COMMANDS, main
from polariscope.io import FORMATS

GOLDEN = Path(__file__).resolve().with_name("golden_outputs.json")

#: Every command at its defaults in each format, then runs off the defaults:
#: a deep-strong sweep with clustered levels, the converge ladder up to
#: n_max 63, the Hermitian dipole, a detuned spectrum, a detuned sweep
#: whose grid holds the exact even/odd crossing at lambda = 0.4, a resonant
#: spectrum at lambda = 0 with its ties and more states asked for than the
#: basis holds, and a deep-strong spectrum.
RUNS = (
    *(f"{command} --format {fmt}" for fmt in FORMATS for command in COMMANDS),
    "sweep --lambda-max 3 --steps 301 --n-max 60",
    "converge --n-max 63 --lambda 1.0",
    "absorption --lambda 1.1 --hermitian-dipole --n-max 9",
    "spectrum --omega2 0.8 --lambda 0.9 --k-states 9",
    "sweep --omega2 1.2 --lambda-max 3 --steps 61 --n-max 30",
    "spectrum --lambda 0 --n-max 2 --k-states 9",
    "spectrum --lambda 3 --n-max 60 --k-states 12",
)


def versions() -> dict[str, str]:
    """The versions whose float formatting and arithmetic the hashes rest on."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(root: Path) -> dict[str, dict[str, str]]:
    """For each of ``RUNS``, run in its own directory under ``root``: the
    sha256 of its standard output, with that directory written ``<out>``,
    and of each file it wrote, by name."""
    hashes = {}
    for number, run in enumerate(RUNS):
        out = root / f"run{number}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*run.split(), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{run!r} exited {code}")
        files = {"stdout": _sha256(stdout.getvalue().replace(str(out), "<out>").encode())}
        files.update((path.name, _sha256(path.read_bytes())) for path in sorted(out.iterdir()))
        hashes[run] = files
    return hashes


def main_regenerate() -> None:
    with tempfile.TemporaryDirectory() as root:
        record = {"versions": versions(), "runs": run_all(Path(root))}
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main_regenerate()
