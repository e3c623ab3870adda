"""fuzzykd benchmark: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload grid-wine --seed 1 --seconds 15 --trace 0

fuzzykd is imported from the ``src`` directory of the checkout this file
sits in, never from an installed copy; without it the run fails at once.
BLAS runs on one thread (see BLAS_THREADS). With ``--trace 0`` the last
line holds the end-to-end metrics of untraced passes. With
``--trace 1`` it holds per-layer metrics from a traced set-up and traced
passes, plus the tracing overhead against untraced passes of the same run.
Metric names, units and workload names come from ``BENCHMARK.json`` at the
checkout root; the line before the result records the machine, the input
shape and the output digest.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # scratch models and the digest record
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: with two on a 2-core machine, the idle OpenBLAS thread
# spin-waits beside the Python thread and grid-wine pass times swung by
# +-20% between passes, against +-4% with one.
BLAS_THREADS = 1
# setup_s takes the fastest of these fresh-interpreter imports: noise only
# ever adds to an import's time.
IMPORT_REPEATS = 10
SETUP_REPEATS = 3
MIN_PASSES = 3
IMPORT_CODE = ("import time; t = time.perf_counter(); import fuzzykd; "
               "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported without a result line."""


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args = _parse_args(argv, [w["name"] for w in spec["workloads"]])
        threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
        _import_checkout(threads)
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        try:
            metrics, info, tally = _run(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info["machine"] = _machine_facts(threads)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    attempted, failed, problems = tally
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    info["problems"] = problems
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in wanted}}))
    return 0


def _parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description="Run one fuzzykd benchmark "
                                "workload and print its metrics as JSON.")
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True,
                   help="picks the inputs; the same seed gives the same ones")
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the passes of one run are repeated")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the benchmark's smoke test")
    return p.parse_args(argv)


def _import_checkout(threads: int) -> None:
    """Import fuzzykd from this checkout, with BLAS threads fixed first."""
    if not (SRC / "fuzzykd" / "__init__.py").is_file():
        raise BenchError(f"no fuzzykd package under {SRC}; run the "
                         f"benchmark inside a full checkout")
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    import fuzzykd
    if Path(fuzzykd.__file__).resolve().parent != SRC / "fuzzykd":
        raise BenchError(f"imported fuzzykd from {fuzzykd.__file__}, "
                         f"not from {SRC}")


def _run(args, workdir: Path):
    import tracer
    import workloads

    wl = workloads.make(args.workload, args.size)
    if args.trace:
        state = wl.setup(args.seed, workdir)
        plain_s, results, _ = _passes(wl, state, args.seconds / 2, 1)
        tr = tracer.Tracer()
        with tr:
            state = wl.setup(args.seed, workdir)
            setup_phase = tr.take()
            traced_s, traced, phases = _passes(wl, state, args.seconds / 2,
                                               1, tr)
        _require_untraced(tracer)
        results += traced
        metrics = tracer.layer_metrics(setup_phase, phases)
        metrics["trace.overhead_frac"] = (statistics.median(traced_s) /
                                          statistics.median(plain_s) - 1.0)
        times = plain_s
    else:
        _require_untraced(tracer)
        imports = [_child_import_seconds() for _ in range(IMPORT_REPEATS)]
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed, workdir, in_child=True)
            setups.append(time.perf_counter() - t0)
        times, results, _ = _passes(wl, state, args.seconds, MIN_PASSES)
        wall = statistics.median(times)
        metrics = {
            "wall_s": wall,
            "fits_per_s": results[0].fits / wall,
            "rows_per_s": results[0].rows / wall,
            "setup_s": min(imports) + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "acc": results[0].acc,
        }
    tally = _tally(args, results)
    attempted, failed, _ = tally
    metrics["ok_frac"] = 1.0 - failed / attempted
    metrics["failed_frac"] = failed / attempted
    info = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "shape": wl.shape(state),
            "pass_s": {"n": len(times), "min": min(times),
                       "median": statistics.median(times),
                       "max": max(times)},
            "fits_per_pass": results[0].fits,
            "rows_per_pass": results[0].rows,
            "digest": results[0].digest, **results[0].detail}
    return metrics, info, tally


def _passes(wl, state, seconds: float, min_passes: int, tr=None):
    """Repeat timed passes until `seconds` have gone and `min_passes` ran.

    Only the workload's library calls are timed. A tracer's phase is closed
    before the outputs are checked, and the spans recorded while checking
    are dropped, so checking shows up in no layer.
    """
    times, results, phases = [], [], []
    end = time.perf_counter() + seconds
    while len(times) < min_passes or time.perf_counter() < end:
        t0 = time.perf_counter()
        out = wl.timed(state)
        times.append(time.perf_counter() - t0)
        if tr is not None:
            phases.append(tr.take())
        results.append(wl.evaluate(state, out))
        if tr is not None:
            tr.take()
    return times, results, phases


def _tally(args, results):
    """(attempted, failed, problems) over all passes of the run.

    Every pass must reproduce the first pass's output digest, and the first
    digest must match the one recorded by any earlier run of the same code
    with the same workload, size and seed; a pass that differs counts all
    of its units as failed.
    """
    problems = [p for r in results for p in r.problems]
    attempted = sum(r.units for r in results)
    failed = sum(r.failed for r in results)
    first = results[0].digest
    for i, r in enumerate(results[1:], 1):
        if r.digest != first:
            problems.append(f"pass {i} output digest {r.digest[:12]} differs "
                            f"from pass 0 ({first[:12]})")
            failed += r.units - r.failed
    key = f"{args.workload}/{args.size}/{args.seed}/{_code_fingerprint()}"
    earlier = _record_digest(key, first)
    if earlier != first:
        problems.append(f"output digest {first[:12]} differs from "
                        f"{earlier[:12]}, recorded by an earlier run of the "
                        f"same code and seed")
        failed = attempted
    return attempted, failed, problems


def _code_fingerprint() -> str:
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*")):
            if path.suffix in (".py", ".csv") and path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _record_digest(key: str, digest: str) -> str:
    """Digest stored for `key` by an earlier run; stores `digest` if none."""
    path = WORK / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        known = {}
    if key not in known:
        known[key] = digest
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return known[key]


def _require_untraced(tracer) -> None:
    leftover = tracer.traced_attributes()
    if leftover:
        raise BenchError(f"trace wrappers still installed: {leftover}")


def _child_import_seconds() -> float:
    """Time to import fuzzykd in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _machine_facts(threads: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_name, "blas_threads": threads}


if __name__ == "__main__":
    sys.exit(main())
