#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 10 --trace 0

Builds the benchmark binary from source into .bench_build/ (CMake, Release;
only the fvn libraries it links), runs it, and relays its output. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. A traced run also writes its spans to
.bench_build/traces/<workload>.json (Chrome trace_event format).

Exit status: 0 when every op passed its check; non-zero, with no result
line, when the build fails (for instance without the repository's src/), and
non-zero when an op fails or the binary does not finish in time.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "fvn_perfbench"
WORKLOADS = ("converge", "serve-lookup", "serve-update", "verify")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_step(cmd):
    # Compiler temporaries go under the build tree, so that the benchmark
    # writes nothing outside its checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            env=dict(os.environ, TMPDIR=str(tmp)))
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        log(f"build step failed ({result.returncode}): {' '.join(cmd)}")
    return result.returncode == 0


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no fvn sources at {ROOT / 'src'}; nothing to build")
        return False
    # Configure every time: a tenth of a second with a cache, and it picks up
    # an edited CMakeLists.txt before the build asks for a new target.
    if not run_step(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]):
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_step(["cmake", "--build", str(BUILD), "--target", "fvn_perfbench",
                     "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs (the benchmark's own tests)")
    parser.add_argument("--expect-wrong-holds", action="store_true",
                        help="deliberately wrong expectation: verify expects `wrong` to hold")
    args = parser.parse_args()

    if not build():
        return 2

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.json")]
    if args.small:
        cmd.append("--small")
    if args.expect_wrong_holds:
        cmd.append("--expect-wrong-holds")

    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = result.stdout.splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    if report is None:
        sys.stdout.write(result.stdout)
        log(f"benchmark binary printed no result (exit {result.returncode})")
        return result.returncode or 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode == 0 and not report["correct"]:
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
