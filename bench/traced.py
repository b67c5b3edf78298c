"""One in-process CLI run, optionally traced per layer.

Usage (the runner starts it; it can also be run by hand from the repository
root)::

    python3 bench/traced.py --mode traced --result R.json --spans S.json -- \
        sweep --out OUT

It times ``import polariscope.cli``, then calls ``polariscope.cli.main(argv)``
once and writes a JSON summary to ``--result``.  In ``traced`` mode the public
functions are first wrapped where their callers look them up (the names bound
in ``polariscope.cli``, ``polariscope.experiments`` and
``polariscope.spectra``), each call records a span, and the spans are written
once to ``--spans`` after the run.  A name a later version no longer binds or
calls is simply not wrapped or reports a count of 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import weakref
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"

CALLER_MODULES = ("polariscope.cli", "polariscope.experiments", "polariscope.spectra")

#: Wrapped name -> layer.  Names are looked up in every caller module above.
#: ``dipole_element`` is defined in ``observables`` but only ``spectra``
#: calls it, so it is timed with the spectra layer.
LAYERS = {
    "main": "cli",
    "parse_config": "cli.parse",
    "build_basis": "model",
    "build_rabi_hamiltonian": "model",
    "build_rwa_hamiltonian": "model",
    "diagonalize": "eigensolve",
    "photon_number": "observables",
    "atomic_energy": "observables",
    "classify_regime": "spectra",
    "absorption_lines": "spectra",
    "dipole_element": "spectra",
    "track_states": "experiments.track",
    "sweep_datasets": "experiments.assemble",
    "convergence_study": "experiments.assemble",
    "absorption_dataset": "experiments.assemble",
    "emit_dataset": "io",
    "emit_plot_script": "io",
}

_MODEL_OF_BUILDER = {"build_rabi_hamiltonian": "full", "build_rwa_hamiltonian": "rwa"}

#: Per-layer metric -> (span layers whose self time it sums).
TIME_METRICS = {
    "cli.self_s": ("cli",),
    "cli.parse_s": ("cli.parse",),
    "model.build_s": ("model",),
    "eigensolve.solve_s.full": ("eigensolve.full",),
    "eigensolve.solve_s.rwa": ("eigensolve.rwa",),
    "observables.s": ("observables",),
    "spectra.s": ("spectra",),
    "experiments.track_s": ("experiments.track",),
    "experiments.assemble_s": ("experiments.assemble",),
    "io.emit_s": ("io",),
}

#: Per-layer metric -> (span layers whose calls it counts).
COUNT_METRICS = {
    "model.builds": ("model",),
    "eigensolve.solves": ("eigensolve.full", "eigensolve.rwa", "eigensolve.other"),
    "observables.calls": ("observables",),
    "spectra.calls": ("spectra",),
    "experiments.track_calls": ("experiments.track",),
    "io.files": ("io",),
}


class Tracer:
    """Records one span per wrapped call, in memory.

    A span is ``[name, start, end, parent, run_id]``: ``name`` is
    ``<layer>/<function>``, ``parent`` the index of the enclosing span (-1 at
    the root).  Self time is a span's duration minus the durations of its
    direct children.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.sweeps = 0
        self.max_residual = 0.0
        self.emitted: list[Path] = []
        self._stack: list[int] = []
        self._models: dict[int, tuple[weakref.ref, str]] = {}
        self._originals: list[tuple[object, str, object]] = []

    def _span_name(self, name: str, args, kwargs) -> str:
        layer = LAYERS[name]
        if name == "diagonalize":
            matrix = args[0] if args else kwargs.get("matrix")
            ref, model = self._models.pop(id(matrix), (None, "other"))
            layer = f"{layer}.{model if ref is not None and ref() is matrix else 'other'}"
        return f"{layer}/{name}"

    def _observe(self, name: str, result) -> None:
        if name in _MODEL_OF_BUILDER:
            self._models[id(result)] = (weakref.ref(result), _MODEL_OF_BUILDER[name])
        elif name == "diagonalize":
            self.sweeps += int(result.sweeps)
            self.max_residual = max(self.max_residual, float(result.residual))
        elif LAYERS[name] == "io" and isinstance(result, (str, Path)):
            self.emitted.append(Path(result))

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [self._span_name(name, args, kwargs), 0.0, 0.0,
                    self._stack[-1] if self._stack else -1, self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            self._observe(name, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap every LAYERS name bound in ``modules``; restore on exit."""
        wrappers = {}
        for module in modules:
            for name in LAYERS:
                func = getattr(module, name, None)
                if callable(func):
                    if id(func) not in wrappers:
                        wrappers[id(func)] = self.wrap(name, func)
                    self._originals.append((module, name, func))
                    setattr(module, name, wrappers[id(func)])
        try:
            yield self
        finally:
            for module, name, func in reversed(self._originals):
                setattr(module, name, func)
            self._originals.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span layer."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            layer = name.split("/")[0]
            totals[layer] = totals.get(layer, 0.0) + (end - start) - inner
        return totals

    def metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer (times, counts); a layer never called reads 0.

        Counts are deterministic for one version and configuration; times
        are not.
        """
        selfs = self.self_times()
        calls: dict[str, int] = {}
        for span in self.spans:
            layer = span[0].split("/")[0]
            calls[layer] = calls.get(layer, 0) + 1
        times = {m: sum(selfs.get(l, 0.0) for l in layers) for m, layers in TIME_METRICS.items()}
        times["trace.self_total_s"] = sum(selfs.values())
        counts = {m: sum(calls.get(l, 0) for l in layers) for m, layers in COUNT_METRICS.items()}
        counts["eigensolve.sweeps"] = self.sweeps
        counts["eigensolve.max_residual"] = self.max_residual
        counts["io.bytes"] = sum(p.stat().st_size for p in self.emitted if p.is_file())
        counts["trace.spans"] = len(self.spans)
        return times, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--run-id", default="0")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import polariscope.cli as cli

    import_s = perf_counter() - start
    result = {"mode": args.mode, "import_s": import_s}
    tracer = Tracer(args.run_id)
    modules = [sys.modules[name] for name in CALLER_MODULES if name in sys.modules]
    context = tracer.installed(modules) if args.mode == "traced" else contextlib.nullcontext()
    captured = io.StringIO()
    with context, contextlib.redirect_stdout(captured):
        start = perf_counter()
        result["exit"] = cli.main(cli_argv)
        result["wall_s"] = perf_counter() - start
    if args.mode == "traced":
        result["times"], result["counts"] = tracer.metrics()
        if args.spans is not None:
            args.spans.write_text(json.dumps(tracer.spans))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
