#!/usr/bin/env python3
"""Build and run the SelVec wall-clock benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_tables --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the libraries under src/ plus the
benchmark driver in Release mode, in $CARGO_TARGET_DIR (default
.bench_build); later calls only re-check the build. Build output goes
to stderr, so the last line of stdout is the driver's JSON result.
Spans of a traced run are written to <build dir>/traces/. See
perfbench/README.md for the workloads and metrics.

--selftest runs the short mode of every workload twice untraced and
twice traced, and fails unless every metric named in BENCHMARK.json is
printed with its unit, the deterministic metrics and layer counts
repeat exactly, and each traced replay reproduced its untraced run.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD, "selvec_perfbench")
WORKLOADS = ["paper_tables", "compile_unique", "optgap_exact"]

# A run that has not finished by then has failed (the limit is 180 s).
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("SelVec sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", BUILD, "--target", "selvec_perfbench",
                "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr).returncode:
            fail("build failed")


def commit():
    """The git commit, or a digest of src/ in a checkout without git."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_driver(args, capture):
    """Run the driver; returns (exit code, stdout text or None)."""
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    try:
        proc = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def trace_path(workload, seed, tag=""):
    return os.path.join(BUILD, "traces",
                        "%s-seed%s%s.jsonl" % (workload, seed, tag))


def last_json(text):
    lines = [l for l in (text or "").splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    exact_e2e = {"sim_cycles", "selective_speedup", "proven_ratio"}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            results = []
            for attempt in (0, 1):
                args = ["--workload", workload, "--seed", "1", "--trace",
                        str(trace), "--short"]
                if trace:
                    args += ["--trace-out",
                             trace_path(workload, 1, "-selftest")]
                code, out = run_driver(args, True)
                result = last_json(out)
                where = "%s trace=%d run %d" % (workload, trace, attempt)
                if code != 0 or result is None or not result["correct"]:
                    problems.append(where + ": not correct (exit %d)" % code)
                    continue
                for m in wanted[trace]:
                    got = result["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        problems.append("%s: %s missing or not in %s"
                                        % (where, m["name"], m["unit"]))
                results.append(result["metrics"])
            if len(results) != 2:
                continue
            for m in wanted[trace]:
                name = m["name"]
                exact = (name in exact_e2e if trace == 0
                         else m["unit"] in ("count", "bytes"))
                if exact and results[0][name] != results[1][name]:
                    problems.append("%s trace=%d: %s differs across runs "
                                    "(%s vs %s)" % (workload, trace, name,
                                                    results[0][name]["value"],
                                                    results[1][name]["value"]))
            print("selftest %s trace=%d: %s" % (
                workload, trace,
                "ok" if not any(p.startswith(workload) for p in problems)
                else "FAILED"))
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required (or --selftest)")
    build()
    if args.selftest:
        sys.exit(selftest())
    driver_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--commit", commit()]
    if args.trace:
        driver_args += ["--trace-out", trace_path(args.workload, args.seed)]
    code, _ = run_driver(driver_args, False)
    sys.exit(code)


if __name__ == "__main__":
    main()
