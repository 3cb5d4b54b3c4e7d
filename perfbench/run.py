"""Run one benchmark workload against the bdmfem sources in ``src/``.

    python3 perfbench/run.py --workload solve-large --seed 1 \
        --seconds 25 --trace 0

One client runs operations back to back (a closed loop) for
``--seconds`` seconds, at least one, and checks each one's output.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the seed, the machine and the raw samples.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median
seconds of one operation; ``peak_rss_mb``, the peak resident set of the
process that ran the operations; and ``setup_s``, the median of five
set-ups (this process's own and four in fresh interpreters).  ``--trace
1`` runs the same operations with spans around every call into a
``bdmfem`` module and reports per-layer self times and counts, each the
median over operations, plus ``trace.wall_s``; the spans are written to
``.perfbench/trace-<workload>-<seed>.json``.

Exits 1 after printing the result if an operation failed, and 2
without a result when the sources are missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_CHILDREN = 4
WORKLOAD_NAMES = ("solve-large", "converge-rt0", "cli-inspect")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def cap_threads(limit):
    """Cap every BLAS/OpenMP pool at `limit`, here and in children."""
    for var in THREAD_VARS:
        try:
            value = min(int(os.environ[var]), limit)
        except (KeyError, ValueError):
            value = limit
        os.environ[var] = str(max(value, 1))


def machine(nproc):
    import numpy
    import scipy
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def setup_samples(name, seed, workdir):
    """Seconds of set-up in fresh interpreters, one after another."""
    samples = []
    for k in range(SETUP_CHILDREN):
        scratch = workdir / "setup-{}".format(k)
        scratch.mkdir()
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", name,
             str(seed), str(scratch)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
        shutil.rmtree(scratch)
    return samples


def run_ops(workload, seconds, tracer):
    """Closed loop; returns [(seconds, ok, child peak RSS KiB or None)]."""
    ops = []
    prepare = getattr(workload, "prepare", None)
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        if prepare is not None and ops:
            prepare(len(ops))
        if tracer is not None:
            tracer.op = len(ops) + 1
        began = time.perf_counter()
        try:
            child_rss = workload.operation()
            ok = True
        except Exception as exc:  # every failure is counted, not fatal
            print("operation {} failed: {!r}".format(len(ops) + 1, exc),
                  file=sys.stderr)
            child_rss, ok = None, False
        ops.append((time.perf_counter() - began, ok, child_rss))
        if tracer is not None:
            tracer.op = 0   # spans between operations count for none
    return ops


def layer_metrics(tracer, nops):
    per_op = [tracing.op_metrics(tracer.spans, tracer.counts, op)
              for op in range(1, nops + 1)]
    metrics = {}
    for name, unit in tracing.metric_units().items():
        values = [m.get(name, 0) for m in per_op]
        if unit == "count":   # a count stays a whole number
            value = statistics.median_low(values)
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bdmfem" / "__init__.py").is_file():
        print("run.py: no bdmfem sources at {}".format(SRC), file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path[:0] = [str(SRC)]

    workdir = WORK / "{}-{}-{}".format(args.workload, args.seed, args.trace)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload, setup_s = workloads.timed_setup(args.workload, args.seed,
                                                  workdir)
        setups = [setup_s]
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            workload.trace(tracer)
        else:
            setups += setup_samples(args.workload, args.seed, workdir)
        ops = run_ops(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [t for t, ok, _ in ops if ok] or [t for t, _, _ in ops]
    failed = sum(1 for _, ok, _ in ops if not ok)
    facts = machine(nproc)
    if args.trace:
        metrics = layer_metrics(tracer, len(ops))
        metrics["trace.wall_s"] = {"value": statistics.median(times),
                                   "unit": "s"}
        with open(WORK / "trace-{}-{}.json".format(args.workload, args.seed),
                  "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "machine": facts, "spans": tracer.spans,
                       "counts": tracer.counts}, fh)
    else:
        child_rss = [rss for _, _, rss in ops if rss is not None]
        if child_rss:
            peak_kib = max(child_rss)
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": facts,
                      "op_seconds": [t for t, _, _ in ops],
                      "setup_seconds": setups,
                      "failed_frac": failed / len(ops)}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
