#!/usr/bin/env python3
"""The polariscope benchmark: CLI time-to-dataset, end to end and per layer.

Run from anywhere inside a checkout::

    python3 bench/run.py                      # every workload, both modes
    python3 bench/run.py --workload sweep-default --seed 3 --seconds 60 --trace 0
    python3 bench/run.py --self-test          # prove the output checks bite

``--trace 0`` runs the workload as fresh ``python -m polariscope`` processes,
one at a time, for ``--seconds`` seconds and reports the end-to-end metrics.
``--trace 1`` instead alternates in-process runs with and without per-layer
tracing (``bench/traced.py``) and reports the per-layer metrics.  Every run's
outputs are checked (``bench/checks.py``) and hashed; a run that exits
nonzero, misses an output, fails a check or writes bytes that differ from
the first repetition counts as failed.

Metric names, units and workload reasons come from ``BENCHMARK.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; everything above it is a
human-readable report.  The full record of each run, with the machine facts,
goes to ``.bench_work/<workload>/seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent

#: BLAS and OpenMP pools pinned to one thread, in the runner and every child.
PIN_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PIN_ENV)

sys.dont_write_bytecode = True  # keep bench/ free of generated files
sys.path.insert(0, str(BENCH))
import checks  # noqa: E402  (imports numpy, so after the pins)
import workloads  # noqa: E402

#: Fewest set-up probes a ``--trace 0`` run takes, whatever its length.
MIN_SETUPS = 7

#: Units of the metrics that are printed but not declared in BENCHMARK.json.
_REPORT_UNITS = {"failure_ratio": "1", "wall_tail.samples": "count", "trace.spans": "count"}

_SETUP_CODE = "import sys, polariscope, polariscope.cli as c; c.parse_config(sys.argv[1:])"


class Context:
    """Everything one benchmark invocation shares across workloads."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        sys.path.insert(0, str(SRC))
        import polariscope

        self.ps = polariscope

    def child(self, argv: list[str], log: Path) -> tuple[float, int, float]:
        """Run one child process to exit: (wall s, exit status, peak RSS MB)."""
        with open(log, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - start
        # Already reaped by wait4; recording the status keeps Popen from
        # waiting for it again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": checks.np.__version__,
        "pins": PIN_ENV,
    }


class Run:
    """One workload measured in one mode: samples, failures, hashes."""

    def __init__(self, ctx: Context, workload, seed: int, trace: int):
        self.ctx = ctx
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.dir = WORK / workload.name / f"seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] | None = None

    def verify(self, out: Path, exit_code: int) -> bool:
        """Check one repetition's outputs; record and return success."""
        self.attempted += 1
        if exit_code != 0:
            problems = [f"exit status {exit_code}"]
        elif self.hashes is None:
            problems = checks.check_outputs(self.w, self.ctx.ps, out)
            if not problems:
                self.hashes = checks.file_hashes(out)
        else:
            hashes = checks.file_hashes(out)
            problems = [
                f"{name}: bytes differ from the first repetition"
                for name in sorted(set(hashes) | set(self.hashes))
                if hashes.get(name) != self.hashes.get(name)
            ]
        shutil.rmtree(out, ignore_errors=True)
        self.failed += bool(problems)
        self.failures += [f"repetition {self.attempted}: {p}" for p in problems]
        return not problems

    def setup_probe(self) -> float:
        argv = [sys.executable, "-c", _SETUP_CODE, *self.w.argv(), "--out", str(self.dir / "setup")]
        wall, code, _ = self.ctx.child(argv, self.dir / "setup.log")
        if code != 0:
            raise SystemExit(f"set-up probe failed with status {code}; see {self.dir / 'setup.log'}")
        return wall

    def measure_cli(self, seconds: float) -> dict:
        """End-to-end mode: fresh CLI processes for ``seconds``."""
        self.setup_probe()  # warm the bytecode and file caches; not timed
        walls, rss, setups, rounds = [], [], [], []
        start = perf_counter()
        while not rounds or perf_counter() - start + statistics.median(rounds) <= seconds:
            began = perf_counter()
            setups.append(self.setup_probe())
            out = self.dir / f"r{self.attempted + 1}"
            argv = [sys.executable, "-m", "polariscope", *self.w.argv(), "--out", str(out)]
            wall, code, peak = self.ctx.child(argv, self.dir / "cli.log")
            if self.verify(out, code):
                walls.append(wall)
                rss.append(peak)
            rounds.append(perf_counter() - began)
        while len(setups) < MIN_SETUPS:
            setups.append(self.setup_probe())
        samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
        if not walls:
            return {"samples": samples}
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "wall_tail_s": max(walls),
            "wall_tail.samples": len(walls),
            "peak_rss_mb": statistics.median(rss),
        }
        metrics["hamiltonians_per_s"] = self.w.hamiltonians / (metrics["wall_s"] - metrics["setup_s"])
        return {"samples": samples, "metrics": metrics}

    def measure_layers(self, seconds: float) -> dict:
        """Per-layer mode: in-process runs, untraced and traced in ABBA order."""
        self.setup_probe()
        results = {"plain": [], "traced": []}
        order = ("plain", "traced", "traced", "plain")
        rounds, walls = [], []
        start = perf_counter()
        while len(rounds) < 2 or perf_counter() - start + statistics.median(rounds) <= seconds:
            began = perf_counter()
            mode = order[len(rounds) % len(order)]
            out = self.dir / f"r{self.attempted + 1}"
            result_file = self.dir / "child.json"
            result_file.unlink(missing_ok=True)
            argv = [
                sys.executable, str(BENCH / "traced.py"), "--mode", mode,
                "--result", str(result_file), "--spans", str(self.dir / "spans.json"),
                "--run-id", str(self.attempted + 1),
                "--", *self.w.argv(), "--out", str(out),
            ]
            _, code, _ = self.ctx.child(argv, self.dir / "traced.log")
            result = json.loads(result_file.read_text()) if code == 0 else {}
            ok = self.verify(out, result.get("exit", code or 1))
            if ok:
                results[mode].append(result)
            walls.append(result["wall_s"] if ok else None)
            rounds.append(perf_counter() - began)
        samples = {mode: [r["wall_s"] for r in rs] for mode, rs in results.items()}
        if not results["plain"] or not results["traced"]:
            return {"samples": samples}
        traced = results["traced"]
        metrics = {name: statistics.median(r["times"][name] for r in traced) for name in traced[0]["times"]}
        self_total = metrics.pop("trace.self_total_s")
        for name, value in traced[0]["counts"].items():
            metrics[name] = value
            values = [r["counts"][name] for r in traced]
            if any(v != value for v in values):
                self.failures.append(f"{name} differs between repetitions: {values}")
        metrics["cli.import_s"] = statistics.median(
            r["import_s"] for rs in results.values() for r in rs
        )
        traced_wall = statistics.median(samples["traced"])
        metrics["trace.wall_s"] = traced_wall
        # Adjacent repetitions (P,T),(T,P),... share the host's speed best.
        pairs = [
            (walls[i], walls[i + 1]) if order[i % 4] == "plain" else (walls[i + 1], walls[i])
            for i in range(0, len(walls) - 1, 2)
        ]
        overheads = [t - p for p, t in pairs if p is not None and t is not None]
        if overheads:
            metrics["trace.overhead_s"] = statistics.median(overheads)
        metrics["trace.unattributed_s"] = traced_wall - self_total
        return {"samples": samples, "metrics": metrics}

    def execute(self, seconds: float) -> dict:
        measured = self.measure_layers(seconds) if self.trace else self.measure_cli(seconds)
        if self.trace == 0 and "metrics" in measured:
            measured["metrics"]["failure_ratio"] = self.failed / self.attempted
        record = {
            "workload": {"name": self.w.name, "why": self.ctx.spec["why"][self.w.name],
                         "argv": self.w.argv(), "hamiltonians": self.w.hamiltonians},
            "seed": self.seed,
            "trace": self.trace,
            "seconds": seconds,
            "machine": machine_facts(),
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "hashes": self.hashes,
            **measured,
        }
        (self.dir / "result.json").write_text(json.dumps(record, indent=1))
        return record


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.CANONICAL):
        raise SystemExit(f"BENCHMARK.json workloads {names} do not match {sorted(workloads.CANONICAL)}")
    spec["why"] = {w["name"]: w["why"] for w in spec["workloads"]}
    return spec


def report(record: dict, spec: dict) -> dict:
    """Print one run's metrics; return the declared ones for the JSON line."""
    w = record["workload"]
    m = record["machine"]
    print(f"== {w['name']} seed={record['seed']} trace={record['trace']}: "
          f"polariscope {' '.join(w['argv'])}")
    print(f"   why: {w['why']}")
    print(f"   machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} pins={','.join(f'{k}={v}' for k, v in m['pins'].items())}")
    metrics = record.get("metrics", {})
    declared = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    for name, value in metrics.items():
        unit = units.get(name, _REPORT_UNITS.get(name, ""))
        print(f"   {name:<28} {value:>14.6g} {unit}")
    print(f"   attempted={record['attempted']} failed={record['failed']}")
    for failure in record["failures"][:10]:
        print(f"   FAILED {failure}")
    return {
        name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "polariscope" / "__init__.py").is_file():
        print(f"benchmark: no polariscope sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    ctx = Context(spec)
    if args.self_test:
        import selftest

        return selftest.run(ctx, Run)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(workloads.CANONICAL) if args.workload == "all" else [args.workload]
    if any(name not in workloads.CANONICAL for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.CANONICAL)}")
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)

    lines = []
    for name in names:
        for trace in traces:
            record = Run(ctx, workloads.for_seed(name, args.seed), args.seed, trace).execute(seconds)
            metrics = report(record, spec)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            lines.append((name, {
                "correct": not record["failures"] and len(metrics) == len(declared),
                "attempted": max(record["attempted"], 1),
                "failed": record["failed"],
                "metrics": metrics,
            }))
    if len(lines) == 1:
        result = lines[0][1]
    else:
        result = {
            "correct": all(r["correct"] for _, r in lines),
            "attempted": sum(r["attempted"] for _, r in lines),
            "failed": sum(r["failed"] for _, r in lines),
            "metrics": {f"{n}.{k}": v for n, r in lines for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
