"""Self-test: the benchmark's output checks reject broken outputs.

Run it with ``python3 bench/run.py --self-test``.  It runs small variants
of the workloads once each, requires their untouched outputs to pass, and
then requires each deliberately broken copy to fail:

- one energy moved by 100 x ENERGY_ATOL, in fig2 and in the convergence
  table;
- one photon number and one atomic energy moved by 100 x OBS_ATOL;
- a dataset cut to half its bytes;
- one changed byte in a plot script, caught only by the hash comparison
  between repetitions.

It also traces a run that never calls several wrapped names, over a module
list that includes a module binding none of them, and requires those
layers to read 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import shutil
import sys
import types

import checks
import workloads
from traced import Tracer

SMALL = {
    "sweep-default": {"steps": 11},
    "converge-deep": {"n_max": 20, "ladder": (4, 6, 8, 10, 14, 20)},
}


def _edit_cell(path, row: int, column: str, delta: float) -> None:
    """Add ``delta`` to one numeric cell of a CSV dataset."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    col = header.index(column)
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _truncate(path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _flip_byte(path) -> None:
    data = bytearray(path.read_bytes())
    data[-2] ^= 0x01
    path.write_bytes(bytes(data))


def run(ctx, run_class) -> int:
    results = []

    def expect(label: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        detail = problems[0] if problems else "no problem found"
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}")

    outputs = {}
    for name, changes in SMALL.items():
        w = dataclasses.replace(workloads.CANONICAL[name], **changes)
        r = run_class(ctx, w, seed=0, trace=0)
        out = r.dir / "selftest"
        _, code, _ = ctx.child(
            [sys.executable, "-m", "polariscope", *w.argv(), "--out", str(out)],
            r.dir / "cli.log",
        )
        if code != 0:
            print(f"FAIL {name}: CLI exited with status {code}")
            return 1
        outputs[name] = (w, r, out)
        expect(f"{name} untouched outputs pass", checks.check_outputs(w, ctx.ps, out), False)

    def broken(name: str, label: str, edit) -> None:
        w, r, out = outputs[name]
        copy = r.dir / "broken"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        edit(copy)
        expect(label, checks.check_outputs(w, ctx.ps, copy), True)

    broken("sweep-default", "fig2 energy moved by 100 x ENERGY_ATOL",
           lambda d: _edit_cell(d / "fig2.csv", 5, "e_full_3", 100 * checks.ENERGY_ATOL))
    broken("converge-deep", "convergence energy moved by 100 x ENERGY_ATOL",
           lambda d: _edit_cell(d / "convergence.csv", 2, "e_0", 100 * checks.ENERGY_ATOL))
    broken("sweep-default", "fig4_left photon number moved by 100 x OBS_ATOL",
           lambda d: _edit_cell(d / "fig4_left.csv", 7, "nbar_full_2", 100 * checks.OBS_ATOL))
    broken("sweep-default", "fig4_right atomic energy moved by 100 x OBS_ATOL",
           lambda d: _edit_cell(d / "fig4_right.csv", 3, "eatom_rwa_1", 100 * checks.OBS_ATOL))
    broken("sweep-default", "fig4_left.csv truncated to half",
           lambda d: _truncate(d / "fig4_left.csv"))

    w, r, out = outputs["sweep-default"]
    for label, edit, should_fail in (
        ("first repetition recorded", lambda d: None, False),
        ("identical repetition passes", lambda d: None, False),
        ("repetition with one changed byte fails", lambda d: _flip_byte(d / "plot_fig3.py"), True),
    ):
        copy = r.dir / "repetition"
        shutil.copytree(out, copy)
        edit(copy)
        before = len(r.failures)
        r.verify(copy, 0)
        expect(label, r.failures[before:], should_fail)

    w, _, out = outputs["converge-deep"]
    tracer = Tracer("selftest")
    cli = importlib.import_module("polariscope.cli")
    modules = [cli, importlib.import_module("polariscope.experiments"),
               types.ModuleType("without_names")]
    original = cli.main
    with tracer.installed(modules), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*w.argv(), "--out", str(out / "traced")])
    times, counts = tracer.metrics()
    zero = {
        name: value for name, value in {**times, **counts}.items()
        if name in ("eigensolve.solve_s.rwa", "observables.s", "observables.calls",
                    "experiments.track_calls", "spectra.calls")
    }
    problems = [] if code == 0 else [f"exit status {code}"]
    problems += [f"{name} = {value}, expected 0" for name, value in zero.items() if value != 0]
    problems += [] if len(zero) == 5 else [f"layers missing from the trace: {sorted(zero)}"]
    problems += [] if counts["eigensolve.solves"] == len(w.ladder) else [
        f"eigensolve.solves = {counts['eigensolve.solves']}, expected {len(w.ladder)}"
    ]
    problems += [] if cli.main is original else ["cli.main not restored after tracing"]
    expect("uncalled and unbound wrapped names read 0", problems, False)

    passed = sum(results)
    print(f"self-test: {passed}/{len(results)} expectations held")
    return 0 if passed == len(results) else 1
