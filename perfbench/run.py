#!/usr/bin/env python3
"""ggsignal benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads are `reproduce`, `oracle` and `battery` (see workloads.py); `all`
runs the three in turn and prints a table. The program under test is the
checkout's `src/ggsignal`, imported from source.

A run repeats passes until `--seconds` have elapsed, and at least
MIN_PASSES times. Each pass builds fresh fixture files from the seed and the
pass index, then runs the timed section in a new process, so every pass
starts cold. Every timing reported is a median over passes. The digest of
each pass's results is kept under `.perfbench/results/`; a later run of the
same source with the same seed must reproduce it byte for byte, and so must
the traced pass that repeats each untraced one.

With `--trace 0` the last line of standard output is the JSON result with
the end-to-end metrics; with `--trace 1` it carries the per-layer metrics,
from traced passes alternated with untraced ones on the same inputs (their
difference is `trace.overhead_s`). Spans are written under
`.perfbench/traces/`. The exit code is 0 only when every command and every
output check passed.

Metrics (end to end, every workload):
  setup_s          median fixture set-up per pass (battery: also its loads)
  wall_s           median timed section of one pass
  op_p50_ms        median latency of one operation: a CLI command
                   (reproduce), one identify-and-project round of a
                   disentangle command, i.e. the command's time over its
                   training rounds (oracle), an association test with its
                   p-value (battery)
  peak_rss_mb      median peak RSS of the measuring process
  planted_capture  smallest |Q^T g| over the run's disentanglements
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("reproduce", "oracle", "battery")
MIN_PASSES = 3
# One BLAS thread keeps runs steady on a small shared machine; the count
# the measuring process really got is recorded with every result.
BLAS_THREADS = 1
# A run must end within 180 s: no pass starts once this much has elapsed.
BUDGET_S = 120.0

# The operations op_p50_ms is the median of, by op kind (see workloads.py).
PRIMARY = {"reproduce": {"disentangle", "measure"}, "oracle": {"disentangle"},
           "battery": {"test"}}
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB",
              "planted_capture": "ratio"}


def pass_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}/{index}".encode()).hexdigest()
    return int(digest[:7], 16)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values: list[float]) -> float:
    """The 95th percentile, or the highest percentile with at least ten
    samples beyond it when there are too few for the 95th; 0 below 11."""
    if len(values) <= 10:
        return 0.0
    return percentile(values, min(0.95, 1.0 - 10.0 / len(values)))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ggsignal").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def last_level_cache() -> int | None:
    import ctypes
    try:
        size = ctypes.CDLL(None).sysconf(194)   # _SC_LEVEL3_CACHE_SIZE in glibc
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


class PassFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        # A fixed place: reports echo output paths, and their digests must repeat.
        self.work = WORK / "work" / f"{args.workload}-{args.scale}"
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS),
                        PYTHONHASHSEED="0")
        self.deadline = time.monotonic() + BUDGET_S

    def child(self, spec: dict) -> dict:
        spec_path = self.work / "result.json"
        log_path = self.work / f"{spec['mode']}.log"
        spec = dict(spec, src=str(SRC), result=str(spec_path), workload=self.args.workload,
                    scale=self.args.scale)
        remaining = max(10.0, self.deadline + 50.0 - time.monotonic())
        with open(log_path, "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                                      env=self.env, stdin=subprocess.DEVNULL,
                                      stdout=log, stderr=log, timeout=remaining, check=False)
            except subprocess.TimeoutExpired:
                raise PassFailed(f"{spec['mode']} process timed out after {remaining:.0f} s")
        if proc.returncode != 0:
            lines = log_path.read_text(encoding="utf-8", errors="replace").splitlines()
            raise PassFailed(f"{spec['mode']} process exited with {proc.returncode}:\n"
                             + "\n".join(lines[-15:]))
        return json.loads(spec_path.read_text(encoding="utf-8"))

    def one_pass(self, index: int, trace: bool) -> dict:
        root = self.work / "pass"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        seed = pass_seed(self.args.seed, index)
        run_id = f"{self.args.workload}/{self.args.seed}/{index}/{'traced' if trace else 'plain'}"
        common = {"dir": str(root), "seed": seed, "trace": trace, "run_id": run_id}
        setup = self.child(dict(common, mode="setup"))
        spans = WORK / "traces" / f"{self.args.workload}-seed{self.args.seed}-pass{index}.jsonl"
        measured = self.child(dict(common, mode="measure", spans=str(spans)))
        measured["setup_s"] = setup["setup_s"] + measured["prepare_s"]
        measured["fixture"] = setup["fixture"]
        measured["index"] = index
        measured["seed"] = seed
        measured["generate_busy_s"] = setup.get("generate_busy_s", 0.0)
        return measured

    def passes(self) -> tuple[list[dict], list[dict]]:
        """Untraced passes, and traced passes (empty unless --trace 1)."""
        trace = bool(self.args.trace)
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        plain, traced = [], []
        started = time.monotonic()
        index = 0
        while True:
            plain.append(self.one_pass(index, False))
            if trace:
                traced.append(self.one_pass(index, True))
            index += 1
            elapsed = time.monotonic() - started
            enough = len(plain) >= (2 if trace else MIN_PASSES) and elapsed >= self.args.seconds
            if enough or time.monotonic() > self.deadline:
                return plain, traced


def failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    notes = []
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                notes.append(f"pass {p['index']}: {op['kind']} {op['name']} failed: {op['error']}")
        for check in p["checks"]:
            attempted += 1
            if not check["ok"]:
                failed += 1
                notes.append(f"pass {p['index']}: check {check['name']} failed "
                             f"(value {check['value']})")
    return attempted, failed, notes


def remembered(args, plain: list[dict]) -> list[tuple[dict, dict]]:
    """(earlier, now) pairs for passes whose inputs an earlier run of the same
    source already measured; the other passes' digests are stored."""
    store = WORK / "results" / f"{args.workload}-{args.scale}-{source_digest()}.json"
    store.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(store.read_text(encoding="utf-8")) if store.is_file() else {}
    pairs = []
    for p in plain:
        key = str(p["seed"])
        if key in known:
            pairs.append(({"digest": known[key], "index": p["index"]}, p))
        else:
            known[key] = p["digest"]
    store.write_text(json.dumps(known), encoding="utf-8")
    return pairs


def determinism(pairs: list[tuple[dict, dict]]) -> tuple[int, int, list[str]]:
    failed, notes = 0, []
    for a, b in pairs:
        if a["digest"] != b["digest"]:
            failed += 1
            notes.append(f"results of pass {a['index']} differ from an earlier "
                         "measurement of the same inputs")
    return len(pairs), failed, notes


def end_to_end(plain: list[dict], primary: set[str]) -> tuple[dict, int]:
    ops = [op["seconds"] / op["units"] for p in plain for op in p["ops"] if op["kind"] in primary]
    captures = [p["capture"] for p in plain if p["capture"] is not None]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_p50_ms": 1000.0 * statistics.median(ops) if ops else 0.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "planted_capture": min(captures) if captures else 0.0,
    }
    return values, len(ops)


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, int]:
    names = traced[0]["layers"].keys()
    values = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    values["synthetic.generate.busy_s"] = statistics.median(p["generate_busy_s"] for p in traced)
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in plain))

    def per_pass(kinds: set[str]) -> float:
        return statistics.median(sum(op["seconds"] for op in p["ops"] if op["kind"] in kinds)
                                 for p in plain)

    values["disentangle_s"] = per_pass({"disentangle"})
    values["measure_s"] = per_pass({"measure", "test", "eval"})
    tests = [op["seconds"] for p in plain for op in p["ops"] if op["kind"] == "test"]
    values["test_p50_ms"] = 1000.0 * statistics.median(tests) if tests else 0.0
    values["test_p95_ms"] = 1000.0 * tail(tests)
    return values, len(tests)


def metadata(plain: list[dict]) -> dict:
    import numpy
    fixture = plain[0]["fixture"]
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": plain[0]["blas_threads"], "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": git_commit(), "source": source_digest(),
        "llc_bytes": last_level_cache(), "fixture_rows": fixture["rows"],
        "fixture_dimension": fixture["dimension"], "fixture_bytes": fixture["bytes"],
        "passes": len(plain),
    }


def run_one(args) -> int:
    import layers   # names and units only; the program is imported by the workers
    runner = Runner(args)
    runner.work.mkdir(parents=True, exist_ok=True)
    try:
        plain, traced = runner.passes()
    except PassFailed as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    attempted, failed, notes = failures(plain + traced)
    pairs = remembered(args, plain) + list(zip(plain, traced))
    n, bad, more = determinism(pairs)
    attempted, failed, notes = attempted + n, failed + bad, notes + more
    for note in notes:
        print(note, file=sys.stderr)
    print(f"determinism: {n} passes compared with earlier measurements of the same inputs")

    print("meta " + json.dumps(metadata(plain)))
    if args.trace:
        metrics, samples = per_layer(plain, traced)
        units = {name: layers.unit_of(name) for name in metrics}
        top = ", ".join(f"{n} {s:.3f}s" for n, s in traced[-1]["top"])
        print(f"trace: largest self times: {top}")
        print(f"test_p50_ms and test_p95_ms are over {samples} untraced association tests")
    else:
        metrics, samples = end_to_end(plain, PRIMARY[args.workload])
        units = END_TO_END
        print(f"op_p50_ms is the median of {samples} operations over {len(plain)} passes")
        print("wall_s by pass: " + " ".join(f"{p['wall_s']:.3f}" for p in plain))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} error_rate = {failed}/{attempted}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    worst = 0
    table = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        table[workload] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print()
    for workload, result in table.items():
        if result is None:
            print(f"{workload}: FAILED")
            continue
        cells = ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                          for name, m in result["metrics"].items())
        print(f"{workload}: error_rate {result['failed']}/{result['attempted']}; {cells}")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes are for the benchmark's self-test")
    args = parser.parse_args()
    if not (SRC / "ggsignal" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC / 'ggsignal'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
