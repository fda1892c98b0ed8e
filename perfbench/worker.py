"""One half of a benchmark pass, in a process of its own.

`setup` writes the fixture files of one pass; `measure` prepares (for the
battery: loads the tables), runs the timed section, checks the outputs and
reports its own peak RSS. Keeping the two apart means the measuring
process's peak RSS is that of the workload, not of fixture generation, and
every pass starts with the program's in-process caches empty.

Invoked by run.py as `python3 worker.py '<json spec>'`; the result is written
as JSON to the spec's `result` path.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count of the BLAS that numpy loaded, when it is OpenBLAS."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(handle, name):
                return int(getattr(handle, name)())
    return None


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import ggsignal
    if Path(ggsignal.__file__).resolve().parent.parent != Path(spec["src"]).resolve():
        raise RuntimeError(f"imported ggsignal from {ggsignal.__file__}, not from {spec['src']}")

    import layers
    from tracer import Tracer
    from workloads import SCALES, WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    scale = SCALES[spec["scale"]]
    root = Path(spec["dir"])
    seed = spec["seed"]
    tracer = Tracer(spec["run_id"]) if spec["trace"] else None
    result: dict = {}

    if spec["mode"] == "setup":
        if tracer is not None:
            layers.install(tracer, layers.SETUP_TARGETS)
        started = time.perf_counter()
        result["fixture"] = workload.setup(root, seed, scale)
        result["setup_s"] = time.perf_counter() - started
        if tracer is not None:
            tracer.restore()
            result["generate_busy_s"] = sum(s.duration for s in tracer.named("synthetic.generate"))
    else:
        started = time.perf_counter()
        state = workload.prepare(root, seed, scale)
        result["prepare_s"] = time.perf_counter() - started
        gc.collect()
        if tracer is not None:
            layers.install(tracer, layers.MEASURE_TARGETS)
            started = time.perf_counter()
            with tracer.span("pass"):
                outcome = workload.run(state, tracer)
            result["wall_s"] = time.perf_counter() - started
            tracer.restore()
        else:
            started = time.perf_counter()
            outcome = workload.run(state, None)
            result["wall_s"] = time.perf_counter() - started
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(ops=outcome.ops, checks=outcome.checks, capture=outcome.capture,
                      digest=outcome.digest(), blas_threads=blas_threads())
        if tracer is not None:
            result["layers"] = layers.summarize(tracer)
            result["top"] = layers.top_self_times(tracer)
            tracer.write(Path(spec["spans"]))

    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
