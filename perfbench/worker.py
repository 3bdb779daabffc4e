"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED REPORT_PATH [SPANS_PATH]

Imports florasim from the checkout's ``src/``, builds the workload's config,
runs it, checks its output and prints one JSON line: set-up and run times,
CPU seconds, peak RSS, the output checks and the report digest. With
SPANS_PATH the run is traced (see tracing.py), the per-layer metrics are
added to the line and the spans are written to SPANS_PATH ("-" keeps them in
memory only). run.py drives this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _environment() -> dict[str, object]:
    """Interpreter, numpy and BLAS versions, cores, and BLAS threads."""
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
    }


def main(argv: list[str]) -> int:
    workload, seed, report_path = argv[0], int(argv[1]), argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import florasim
    import workloads

    if not Path(florasim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"florasim imported from {florasim.__file__}, not from {SRC}")
    tracer = None
    if spans_path is not None:
        import florasim.verification  # noqa: F401  (loaded first so its bindings get wrapped)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    config = workloads.build(workload, seed)
    ready = time.perf_counter()
    cpu_ready = _cpu_s()
    outcome = workloads.run(config, report_path)
    done = time.perf_counter()
    cpu_done = _cpu_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    checks, digest = workloads.check(workload, config, outcome, report_path)
    result = {
        "setup_s": ready - start,
        "wall_s": done - ready,
        "cpu_s": cpu_done - cpu_ready,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "digest": digest,
    }
    if tracer is not None:
        result["environment"] = _environment()
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        if spans_path != "-":
            tracer.write_spans(spans_path, {"workload": workload, "seed": seed, **result["environment"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
