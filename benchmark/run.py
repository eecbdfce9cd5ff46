"""Benchmark entry point: one workload, one process, one result line.

    python3 benchmark/run.py --workload mlm_toy --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  BLAS is pinned to one
thread before numpy loads, and the run is refused if the pin did not take.

``--trace 0`` measures the end-to-end metrics with no wrappers installed
except one clock read per optimizer step.  ``--trace 1`` runs the same
workload with span wrappers on two of every three ops and reports the
per-layer metrics, including tokens/s with and without tracing.

Stdout ends with two JSON lines: a full report (environment, every metric
with its unit, sample counts, final loss, error rate), then the result
``{"correct", "attempted", "failed", "metrics"}``.  The report is also
written to ``.bench_out/`` with, for traced runs, a CSV of every span.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("mlm_toy", "encode_long", "electra_span")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Refused(Exception):
    """The run cannot produce a trustworthy result; nothing is printed."""


def pin_blas() -> None:
    """Pin BLAS to one thread; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise Refused("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if os.environ["OPENBLAS_NUM_THREADS"] != "1":
        raise Refused(f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}; "
                      "the benchmark runs with exactly one BLAS thread")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def import_program():
    """Import ``funnel`` from this checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "funnel" / "__init__.py").is_file():
        raise Refused(f"no package source at {src / 'funnel'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import funnel

    if Path(funnel.__file__).resolve().parent != (src / "funnel").resolve():
        raise Refused(f"funnel imported from {funnel.__file__}, not from {src}")
    return funnel


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, threads: int | None) -> dict:
    import platform
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        **{var.lower(): os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run(args) -> tuple[dict, dict]:
    import resource

    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.workload == "encode_long":
            out = workloads.run_encode(args.seed, args.seconds, tracer, work)
        else:
            out = workloads.run_training(args.workload, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not out.op_s:
        raise Refused(f"{args.workload}: no op completed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if args.trace:
        values = workloads.per_layer(args.workload, out, tracer)
        units = workloads.per_layer_units()
    else:
        values = workloads.end_to_end(out, peak_rss_mb)
        units = workloads.END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
              "metrics": metrics}
    report = {
        "metrics": metrics,
        "op_samples": sum(1 for t in out.op_traced if t == bool(args.trace)),
        "setup_samples": len(out.setup_s),
        "error_rate": {"value": out.failed / out.attempted, "unit": "failed/attempted"},
        "final_loss": out.final_loss,
        "first_loss": out.first_loss,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pin_blas()
        import_program()
        threads = blas_threads()
        if threads is not None and threads != 1:
            raise Refused(f"OpenBLAS reports {threads} threads after pinning to 1")
        env = environment(args, threads)
        report, result = run(args)
    except Refused as e:
        print(f"benchmark: refused: {e}", file=sys.stderr)
        return 2
    report = {"environment": env, **report}
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
