#!/usr/bin/env python3
"""The one command of the end-to-end benchmark.

Builds e2e_bench (Release, from this checkout's sources) into
.bench_build/e2e_bench/ and runs each workload in its own process.

  python3 e2e_bench/run.py --workload pes_zipf --seed 1 --seconds 20 --trace 0
      One run. Prints `workload metric value unit` for every metric, then
      one JSON line: {"correct", "attempted", "failed", "metrics"}.
  python3 e2e_bench/run.py [--trace 1] [--quick]
      Every workload once.
  python3 e2e_bench/run.py --repeat N [--quick]
      Every workload N times, interleaved, seeds 1..N: median and quartiles
      per metric, flagging any end-to-end metric whose quartile spread
      exceeds its bound in BENCHMARK.json.
  python3 e2e_bench/run.py --self-test
      Sends one frame twice; passes only if the correctness gate fails.

Runs other than a single --workload also write
.bench_build/e2e_bench/results.json with the host they ran on.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "e2e_bench")
BINARY = os.path.join(OUT, "e2e_bench")
WORKLOADS = ["small_frames", "pes_zipf", "window_reads"]
DEFAULT_SECONDS = 20
QUICK_SECONDS = 2
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "epoch_manager.h")):
        log("e2e_bench: no library sources under %s/src" % ROOT)
        sys.exit(2)
    os.makedirs(OUT, exist_ok=True)
    if not os.path.isfile(os.path.join(OUT, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", OUT, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", OUT, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def run_one(workload, seed, seconds, trace, quick=False, self_test=False,
            echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", OUT]
    if quick:
        cmd.append("--quick")
    if self_test:
        cmd.append("--self-test")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def host_info(seeds, quick):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fstype, best = "unknown", ""
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) > 2 and OUT.startswith(parts[1]) \
                        and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "kernel": platform.release(), "store_fs": fstype,
            "build_type": "Release", "git_sha": sha, "seeds": seeds,
            "quick": quick}


def summarize(runs, limits):
    """Median and quartiles per (workload, metric); flags wide spreads."""
    summary, wide = {}, []
    for workload in WORKLOADS:
        values = {}
        for result in runs.get(workload, []):
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        summary[workload] = {}
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = limits.get(name)
            flag = bound is not None and name != "setup_s" and spread > bound
            if flag:
                wide.append((workload, name, spread, bound))
            summary[workload][name] = {"unit": unit, "median": med, "q1": q1,
                                       "q3": q3, "spread": spread,
                                       "runs": len(vals)}
            print("%s %s median %.6g q1 %.6g q3 %.6g spread %.3f %s%s"
                  % (workload, name, med, q1, q3, spread, unit,
                     "  <-- spread over bound %.2f" % bound if flag else ""))
    return summary, wide


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    seconds = args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)

    build()

    if args.workload:
        code, _ = run_one(args.workload, args.seed, seconds, args.trace,
                          quick=args.quick, self_test=args.self_test)
        sys.exit(code)

    if args.self_test:
        code, result = run_one("small_frames", args.seed, QUICK_SECONDS, False,
                               quick=True, self_test=True, echo=False)
        if code != 0 and result is not None and not result["correct"]:
            log("self-test passed: the gate caught the duplicated frame")
            sys.exit(0)
        log("self-test FAILED: the gate passed a duplicated frame")
        sys.exit(1)

    repeat = max(1, args.repeat)
    seeds = [args.seed + r for r in range(repeat)]
    runs, failed = {}, []
    for seed in seeds:
        for workload in WORKLOADS:
            code, result = run_one(workload, seed, seconds, args.trace,
                                   quick=args.quick, echo=repeat == 1)
            if code != 0 or result is None or not result["correct"]:
                failed.append((workload, seed, code))
            if result is not None:
                runs.setdefault(workload, []).append(result)
    summary, wide = summarize(runs, bounds()) if repeat > 1 else ({}, [])
    with open(os.path.join(OUT, "results.json"), "w") as f:
        json.dump({"host": host_info(seeds, args.quick), "seconds": seconds,
                   "trace": args.trace, "runs": runs, "summary": summary},
                  f, indent=1)
    for workload, seed, code in failed:
        log("FAILED: %s seed %d (exit %d)" % (workload, seed, code))
    for workload, name, spread, bound in wide:
        log("WIDE: %s %s spread %.3f > bound %.2f" % (workload, name, spread, bound))
    log("wrote %s" % os.path.join(OUT, "results.json"))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
