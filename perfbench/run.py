"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ladder|sweep|dense --seed N --seconds S --trace 0|1

One client in one process drives the workload's op list as a closed loop:
each op starts only after the previous one returns. Passes repeat until the
next one would overrun ``--seconds``. ``--trace 0`` reports the end-to-end
metrics from untraced passes; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the traced ones. The last line
of stdout is the result object; the line before it, and a file under
``.perfbench_out/``, hold the details: quartiles, per-op times, failures,
machine facts and, for a traced run, the spans of its last traced pass.
"""
from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ladder", "sweep", "dense")
SETUP_SAMPLES = 11
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import thermwit, thermwit.cli; print(time.perf_counter() - t)"
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_threads() -> int:
    """Cap BLAS threads at nproc before numpy loads; returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(nproc, int(current)) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(nproc: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
    }


def setup_samples() -> list[float]:
    """Import time of thermwit and thermwit.cli, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=60,
        )
        samples.append(float(proc.stdout))
    return samples[1:]  # the first import may compile bytecode caches


@dataclass
class OpRecord:
    name: str
    seconds: float
    rows: int
    error: str | None
    excused: bool  # the error is the op's known failure


@dataclass
class PassRecord:
    ops: list[OpRecord]

    @property
    def wall(self) -> float:
        return sum(o.seconds for o in self.ops)

    @property
    def slowest(self) -> float:
        return max(o.seconds for o in self.ops)

    @property
    def rows(self) -> int:
        return sum(o.rows for o in self.ops)


def run_pass(ops) -> PassRecord:
    records = []
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # an op that raises counts as failed; the pass goes on
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # a malformed result fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        rows = op.rows(result) if result is not None else 0
        del result
        records.append(OpRecord(op.name, seconds, rows, error, error is not None and error == op.known_failure))
    return PassRecord(records)


def warm_up(cli) -> None:
    """Touch each layer once so lazy library set-up is not timed."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        cli.main(["dimer", "--B", "1", "--grid", "1:2:3:lin", "--oracles"])
        cli.main(["dicke", "--n", "4", "--oracles"])
        cli.main(["toy", "--alpha", "0.5", "--D", "100", "--n", "4", "--grid", "1:2:3:log", "--oracles"])


def until(seconds: float, step) -> list:
    """Call ``step`` until the next call would end after ``seconds``; at least once."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thermwit" / "__init__.py").is_file():
        print(f"perfbench: no thermwit source under {SRC}", file=sys.stderr)
        return 2
    nproc = limit_threads()
    sys.path.insert(0, str(SRC))
    import thermwit
    import thermwit.cli

    if Path(thermwit.__file__).resolve().parent != SRC / "thermwit":
        print(f"perfbench: imported thermwit from {thermwit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    facts = machine_facts(nproc)
    setup = setup_samples() if args.trace == 0 else []
    ops = workloads.build(args.workload, args.seed, OUT / "inputs" / f"{args.workload}-{args.seed}")
    warm_up(thermwit.cli)

    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": facts}
    if args.trace == 0:
        passes = until(args.seconds, lambda: run_pass(ops))
        series = {
            "wall_s": ([p.wall for p in passes], "s"),
            "slowest_op_s": ([p.slowest for p in passes], "s"),
            "rows_per_s": ([p.rows / p.wall for p in passes], "rows/s"),
            "setup_s": (setup, "s"),
        }
        detail["timings"] = {k: spread(v) for k, (v, _) in series.items()}
        metrics = {k: (statistics.median(v), unit) for k, (v, unit) in series.items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        all_passes = passes
    else:
        untraced, traced, per_pass = [], [], []
        last_spans: list = []

        def traced_step():
            nonlocal last_spans
            untraced.append(run_pass(ops))
            t = tracer.Tracer()
            t.install()
            try:
                p = run_pass(ops)
            finally:
                t.uninstall()
            last_spans = t.take()
            per_pass.append(tracer.summarize(last_spans, p.rows))
            traced.append(p)

        until(args.seconds, traced_step)
        for key in tracer.COUNT_METRICS:
            if len({m[key] for m in per_pass}) != 1:
                print(f"perfbench: {key} differs between traced passes", file=sys.stderr)
                return 1
        layer = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        idle = [name for name in workloads.STRESSES[args.workload] if layer[f"{name}.calls"] == 0]
        if idle:
            print(f"perfbench: layers {idle} recorded no calls on {args.workload}", file=sys.stderr)
            return 1
        wall_u = statistics.median(p.wall for p in untraced)
        wall_t = statistics.median(p.wall for p in traced)
        layer["trace.overhead_frac"] = (wall_t - wall_u) / wall_u
        metrics = {k: (v, tracer.UNITS[k]) for k, v in layer.items()}
        detail["timings"] = {
            "wall_s_untraced": spread([p.wall for p in untraced]),
            "wall_s_traced": spread([p.wall for p in traced]),
        }
        detail["spans"] = last_spans
        all_passes = untraced + traced

    records = [o for p in all_passes for o in p.ops]
    failed = [o for o in records if o.error is not None]
    if args.trace == 0:
        metrics["ok_ops_frac"] = ((len(records) - len(failed)) / len(records), "ratio")
    detail["op_seconds"] = {
        name: spread([o.seconds for o in records if o.name == name]) for name in dict.fromkeys(o.name for o in records)
    }
    detail["failures"] = sorted({f"{o.name}: {o.error}" + (" (known)" if o.excused else "") for o in failed})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail))
    detail.pop("spans", None)
    print(json.dumps(detail))
    result = {
        "correct": all(o.error is None or o.excused for o in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
