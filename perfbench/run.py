#!/usr/bin/env python3
"""End-to-end benchmark of kperiodic's ThroughputService.

Builds perfbench/ (and with it the library under src/) into .bench_build/
at the repository root, then runs the kpbench binary.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The last line of stdout is a JSON object with the keys
      correct, attempted, failed and metrics: the end-to-end metrics of
      BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
      A traced run also writes its spans to .bench_build/spans-NAME-N.tsv.

  python3 perfbench/run.py --selftest
      The harness self-tests (tail helper, failure accounting, content-key
      uniqueness, duplicate-share accounting).

  python3 perfbench/run.py --steadiness [--runs 10] [--sets 2]
                           [--seconds S] [--workload NAME ...]
      Runs every workload --runs times per set in fresh processes, one seed
      per run, and prints per end-to-end metric the median, quartiles,
      IQR/median and (max-min)/median. It flags every metric whose
      IQR/median exceeds its bound in BENCHMARK.json and, with two sets,
      every metric whose median moved from the first set to the second, in
      either direction, by more than the bound. Exits 1 on any flag.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "kpbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")


def build():
    if not (ROOT / "src" / "api" / "service.hpp").is_file():
        fail(f"kperiodic sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def kpbench_args(workload, seed, seconds, trace):
    args = [str(BINARY), "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans", str(BUILD_DIR / f"spans-{workload}-{seed}.tsv")]
    return args


def run_kpbench(args, quiet=False):
    """Runs kpbench and returns its result line and the parsed object."""
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE if quiet else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"kpbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        if quiet and proc.stderr:
            sys.stderr.write(proc.stderr)
        fail(f"kpbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    return lines[-1], result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(bench, workloads, runs, sets, seconds):
    flags = []
    for workload in workloads:
        per_set = []
        for s in range(sets):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for i in range(runs):
                seed = 1 + s * runs + i
                _, result = run_kpbench(kpbench_args(workload, seed, seconds, 0), quiet=True)
                if not result["correct"] or result["failed"]:
                    flags.append(f"{workload} seed {seed}: {result['failed']} failed requests")
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                print(f"  {workload} set {s + 1} seed {seed}: " +
                      " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
            per_set.append(values)
        print(f"\n{workload}")
        print(f"  {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, values in enumerate(per_set):
                v = values[name]
                q1, med, q3 = quartiles(v)
                iqr, rng = (q3 - q1) / med, (max(v) - min(v)) / med
                medians.append(med)
                mark = ""
                if iqr > bound:
                    mark = "  SPREAD>BOUND"
                    flags.append(f"{workload} {name} set {s + 1}: IQR/median {iqr:.3f} > {bound}")
                elif iqr > bound / 3:
                    mark = "  spread>bound/3"
                print(f"  {name:<12} {s + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{iqr:>8.3f} {rng:>8.3f} {bound:>6}{mark}")
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                mark = "  DRIFT>BOUND" if abs(worse) > bound else ""
                if mark:
                    flags.append(f"{workload} {name}: second median moved by {worse:+.3f}, "
                                 f"beyond {bound}")
                print(f"  {name:<12} second median worse by {worse:+.3f}{mark}")
    print()
    for flag in flags:
        print(f"FLAG {flag}")
    print("steady" if not flags else f"{len(flags)} flag(s)")
    return 1 if flags else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    seconds = args.seconds or bench["run_seconds"]
    build()
    if args.selftest:
        sys.exit(subprocess.run([str(BINARY), "selftest"]).returncode)
    if args.steadiness:
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        sys.exit(steadiness(bench, workloads, args.runs, args.sets, seconds))
    if not args.workload or len(args.workload) != 1:
        fail("give exactly one --workload")
    line, _ = run_kpbench(kpbench_args(args.workload[0], args.seed, seconds, args.trace))
    print(line)


if __name__ == "__main__":
    main()
