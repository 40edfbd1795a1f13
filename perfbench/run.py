#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --tiny

The first form builds perfbench (a CMake package compiling the library from
the parent directory) under .bench_build/ and runs one workload; the last
line of standard output is the benchmark's JSON result, and the exit code is
non-zero when a search was wrong or the build failed. A traced run also
writes its bench-side spans to .bench_build/perfbench-trace-<workload>-<seed>.json.

The second form is the tiny mode: every workload, untraced and traced, on
small inputs for seeds 1 and 2, so every oracle runs in seconds.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["clique_seq", "uts_budget", "kclique_dist"]
# One run measures for at most 60 s plus set-up and layer timings; a run
# still going after this long is hung.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run(args):
    try:
        return subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(args)),
              file=sys.stderr)
        return 1


def tiny():
    failures = []
    for seed in ("1", "2"):
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                args = ["--workload", workload, "--seed", seed, "--seconds", "0.5",
                        "--trace", trace, "--tiny"]
                if run(args) != 0:
                    failures.append(" ".join(args))
    for f in failures:
        print("perfbench: FAILED " + f, file=sys.stderr)
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    build()
    if args == ["--tiny"]:
        return tiny()
    if "--trace" in args and "--trace-out" not in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            opts = dict(zip(args[::2], args[1::2]))
            name = "perfbench-trace-%s-%s.json" % (opts.get("--workload", "x"),
                                                   opts.get("--seed", "x"))
            args += ["--trace-out", os.path.join(ROOT, ".bench_build", name)]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
