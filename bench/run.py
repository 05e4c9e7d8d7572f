"""Benchmark for ewselect: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones
(items_per_s, setup_s, peak_rss_mb); with --trace 1 they are the per-layer
ones, from passes that alternate untraced and traced.  The line before it
holds the details: environment, determinism digest, per-operation times and
selector quality.  Both, and in traced runs the spans, are also written to
bench/results/.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# Fixed before numpy is first imported, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 7

_READY = ("import sys; sys.path.insert(0, sys.argv[1]); import ewselect.cli; "
          "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def measure_setup() -> float:
    """Seconds from launching a fresh interpreter until ewselect is imported
    and ready for its first call."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _READY, str(SRC)],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("a fresh process could not import ewselect")
    return t1 - t0


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "ewselect").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def run_loop(workload, seconds: float, trace: bool, tracer, setup):
    """Run operations over the workload's inputs in turn.

    After each operation, until SETUP_SAMPLES are taken, one set-up time is
    measured into `setup`, so the samples spread over the run rather than
    all falling in one slow or fast stretch of the machine.

    The first pass over the inputs always completes; after it, the loop
    stops once the operations have taken `seconds` in all.  In a traced
    run whole passes alternate untraced and traced (untraced first), at
    least five passes run and the last one is untraced, so there are at
    least two traced passes and each has untraced passes on both sides.
    Returns the per-operation records and the failure/determinism tally.
    """
    ops = []          # (input k, seconds, traced, pass number)
    digests = {}      # input -> digest of its first operation
    quality = []
    attempted = failed = 0
    measured = 0.0
    pass_no = 0
    while True:
        traced = trace and pass_no % 2 == 1
        for k in range(workload.inputs):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = workload.run(k)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = None
            dt = time.perf_counter() - t0
            measured += dt
            if traced:
                tracer.uninstall()
            units = workload.units(k)
            attempted += units
            if result is None:
                failed += units
                bad, digest, rows = units, "", []
            else:
                bad, digest, rows = workload.check(k, result)
                failed += bad
            if not bad:
                if k not in digests:
                    digests[k] = digest
                    quality.extend(rows)
                elif digests[k] != digest:
                    print(f"input {k}: output differs from its first run",
                          file=sys.stderr)
                    failed += units
            ops.append((k, dt, traced, pass_no))
            if len(setup) < SETUP_SAMPLES:
                setup.append(measure_setup())
            if not trace and pass_no > 0 and measured >= seconds:
                break
        else:
            pass_no += 1
            if measured < seconds or (trace and (pass_no < 5
                                                 or pass_no % 2 == 0)):
                continue
        break
    return ops, digests, quality, attempted, failed


def summarize_quality(rows) -> dict:
    if not rows:
        return {}
    return {"support_exact_frac": sum(r[0] for r in rows) / len(rows),
            "linf_err_mean": sum(r[1] for r in rows) / len(rows),
            "fp_mean": sum(r[2] for r in rows) / len(rows)}


def trace_overhead(ops) -> float:
    """Mean over inputs of median traced / median untraced time, minus 1.

    The first pass is left out of the untraced reference: it runs cold.
    """
    ratios = []
    for k in sorted({op[0] for op in ops}):
        on = [dt for kk, dt, tr, _ in ops if kk == k and tr]
        off = [dt for kk, dt, tr, n in ops if kk == k and not tr and n > 0]
        if on and off:
            ratios.append(statistics.median(on) / statistics.median(off))
    return sum(ratios) / len(ratios) - 1.0 if ratios else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="sweep, fit-wide, scan-enum or scan-diag")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ewselect" / "__init__.py").is_file():
        print(f"error: no ewselect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ewselect
    if Path(ewselect.__file__).resolve().parent != SRC / "ewselect":
        print(f"error: imported ewselect from {ewselect.__file__}",
              file=sys.stderr)
        return 2
    from tracer import Tracer, per_layer_metrics
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = environment()
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    setup: list[float] = []
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        ops, digests, quality_rows, attempted, failed = run_loop(
            workload, args.seconds, bool(args.trace), tracer, setup)
        while len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality = summarize_quality(quality_rows)
    digest = hashlib.sha256("".join(
        digests.get(k, "-") for k in range(workload.inputs)).encode()).hexdigest()
    untraced = [(k, dt) for k, dt, tr, _ in ops if not tr]
    rates = [workload.items(k) / dt for k, dt in untraced]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        traced_wall = sum(dt for _, dt, tr, _ in ops if tr)
        units = sum(workload.units(k) for k, _, tr, _ in ops if tr)
        metrics = per_layer_metrics(tracer, units, traced_wall,
                                    trace_overhead(ops), quality)
        tracer.write_spans(results / f"{stem}.spans.csv")
        tracer.write_self_times(results / f"{stem}.self.csv", traced_wall)
    else:
        metrics = {
            "items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "digest": digest,
        "op_s": [round(dt, 6) for _, dt, _, _ in ops],
        "op_traced": [int(tr) for _, _, tr, _ in ops],
        "setup_s": setup, "peak_rss_mb": peak_rss_mb, "quality": quality,
        "unpatched": sorted(tracer.unpatched),
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(results / f"{stem}.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
