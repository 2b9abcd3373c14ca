"""Run one benchmark workload against the checkout this file sits in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics, measured with tracing off; with
``--trace 1`` they are the per-layer metrics of a separate traced run,
whose spans are written under ``.perfbench_out/``.  A line before it gives
the machine facts; with ``--trace 0``, another gives the number of
samples behind each median.  Scratch files go under ``.perfbench_work/`` and are
removed at exit.

analogia is imported only from this checkout's ``src``; if that package is
missing, or an import resolves elsewhere, the run exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class CheckoutError(RuntimeError):
    """analogia cannot be imported from the checkout under test."""


def pin_checkout():
    """Import analogia from ROOT/src and nowhere else."""
    package = os.path.join(SRC, "analogia")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise CheckoutError(f"no analogia package under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import analogia

    found = os.path.dirname(os.path.realpath(analogia.__file__))
    if found != os.path.realpath(package):
        raise CheckoutError(f"analogia imported from {found}, not from {package}")
    return analogia


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and os.path.realpath(toplevel) == os.path.realpath(ROOT)
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pin_checkout()
    except (CheckoutError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    facts = machine_facts()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    print(json.dumps({"machine": facts, "workload": wl.name, "seed": args.seed, "trace": args.trace}))

    ledger = workloads.Ledger()
    workdir = os.path.join(WORK_DIR, f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    metrics: dict = {}
    try:
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.npz")
            layer = workloads.traced_run(wl, ROOT, args.seed, workdir, ledger, spans_path)
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        else:
            e2e, counts = workloads.timed_run(wl, ROOT, args.seed, args.seconds, workdir, ledger)
            print(json.dumps({"samples": counts}))
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in workloads.E2E_UNITS.items() if name in e2e}
    except workloads.OpFailed as exc:
        print(f"perfbench: stopped: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    complete = bool(metrics) if args.trace else set(metrics) == set(workloads.E2E_UNITS)
    correct = ledger.failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
