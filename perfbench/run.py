"""Repo benchmark entry point.

    python3 perfbench/run.py --workload hdfs-gru --seed 1 --seconds 30 --trace 0

Runs one workload in this process and prints a human-readable report
followed, as the last line, by one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
span-instrumented variant and reports the per-layer metrics instead
(spans are written to ``.perfbench/`` when the run ends).  The exit code
is 0 only when every correctness check passed.  The program under test
is imported from ``src/`` of the checkout this file lives in.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the benchmark measures the
# program's own parallelism (two shard threads), not the BLAS pool's.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def metric_units(spec: dict, kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, outcome, numpy) -> dict:
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "windows": outcome.windows,
        "checks": outcome.checks,
        "failures": outcome.failures,
        "notes": outcome.notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    import numpy

    from perfbench import pipeline

    if args.workload not in pipeline.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(pipeline.WORKLOADS)}"
        )
    workload = pipeline.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome, tracer = pipeline.run(
            workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        tracer.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    wanted = metric_units(spec, "per_layer" if args.trace else "end_to_end")
    units = {**metric_units(spec, "end_to_end"), **metric_units(spec, "per_layer")}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    others = [name for name in outcome.metrics if name not in wanted]
    for heading, names in (("reported", list(wanted)), ("also measured", others)):
        print(f" {heading}:")
        for name in names:
            spread = outcome.windows.get(name)
            detail = ""
            if spread:
                detail = f"  (median of {spread['windows']} windows, IQR {spread['iqr']:.6g}"
                if "raw_median" in spread:
                    detail += f", unscaled {spread['raw_median']:.6g}"
                detail += ")"
            print(f"  {name:36s} {outcome.metrics[name]:14.6g} {units[name]}{detail}")
    for name, passed in outcome.checks.items():
        print(f"  check {name:30s} {'ok' if passed else 'FAILED'}")
    print("metadata " + json.dumps(metadata(args, outcome, numpy), sort_keys=True))
    correct = all(outcome.checks.values())
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
