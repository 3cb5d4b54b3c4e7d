"""Run every workload and print its metrics by name, with units.

    python3 perfbench/suite.py [--seed 1] [--seconds N]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.  Per
workload: one untraced run for the end-to-end metrics, then two
traced runs with the same seed for the per-layer metrics.  The suite
prints ``failed_frac``, the tracing overhead (traced minus untraced
``wall_s``) and the largest self times, and checks that every count
metric is identical in both traced runs.  Exits 1 if an operation
failed, a count differs or a run did not produce a result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve-large", "converge-rt0", "cli-inspect")


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError("{} trace={} gave no result (exit {})".format(
            workload, trace, done.returncode))
    return json.loads(lines[-2]), json.loads(lines[-1])


def show(metrics, names):
    for name in names:
        m = metrics[name]
        print("  {:<26} {:>16.6g} {}".format(name, m["value"], m["unit"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    for workload in WORKLOADS:
        info, plain = run(workload, args.seed, args.seconds, 0)
        traced = [run(workload, args.seed, args.seconds, 1)[1]
                  for _ in range(2)]
        layers = traced[0]["metrics"]
        print("{} (seed {}, {} operations, {} threads max)".format(
            workload, args.seed, plain["attempted"],
            info["machine"]["nproc"]))
        show(plain["metrics"], plain["metrics"])
        print("  {:<26} {:>16.6g} {}".format(
            "failed_frac", plain["failed"] / plain["attempted"], "1"))
        overhead = layers["trace.wall_s"]["value"] \
            - plain["metrics"]["wall_s"]["value"]
        print("  {:<26} {:>16.6g} s".format("trace overhead", overhead))
        counts = [n for n, m in layers.items() if m["unit"] == "count"]
        for name in counts:
            values = [t["metrics"][name]["value"] for t in traced]
            if values[0] != values[1]:
                print("  count {} differs between runs: {}".format(
                    name, values))
                ok = False
        own = sorted((m["value"], n) for n, m in layers.items()
                     if m["unit"] == "s" and n != "trace.wall_s")
        print("  largest self times: " + ", ".join(
            "{} {:.3g} s".format(n, v) for v, n in reversed(own[-3:])))
        print("  per layer (first traced run; 0 = layer not called):")
        show(layers, sorted(layers))
        ok = ok and all(r["failed"] == 0 for r in [plain] + traced)
    print("all checks passed" if ok else "CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
