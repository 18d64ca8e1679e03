#!/usr/bin/env python3
"""Dry-validate .github/workflows/ci.yml (no act/runner needed).

Usage: validate_ci.py [path/to/ci.yml]

Checks that the workflow parses as YAML and still carries the nine
contract lanes — build-test (gcc/clang x Release/Debug), sanitize
(fuzzish + hotpath labels under ASan/UBSan), tsan (parallel + fuzzish labels
under ThreadSanitizer), format, bench-smoke (jobs-determinism check,
a --no-cache document cmp'd against the cached one, JSON artifact +
the exact-counter gate against BENCH_baseline.json), perf-smoke
(hotpath tests, SELVEC_CHECK_INCREMENTAL cross-check run, artifact
upload and the exact-counter gate against BENCH_hotpath.json),
fuzz-smoke (containment label, the
deadline-bounded selvec_fuzz sweep with --repro-dir and
--replay-check, and the on-failure repro-bundle artifact upload),
optgap
(the optgap ctest label — KL-vs-exact differentials plus the strict
CLI-parsing regressions — then bench_optgap artifact upload and the
exact-counter gate against BENCH_optgap.json) and sim-speed (the
simspeed ctest label — streaming runs against the reference engine
with closed-form cycles — then the full suite under the
SELVEC_CHECK_SIM reference check, bench_simspeed artifact upload and
the exact-counter gate against BENCH_simspeed.json) — so a refactor of
the workflow cannot silently drop one.

Beyond the lanes it pins the operational contract: every job must
carry timeout-minutes, the nightly fuzz-extended job must exist,
be gated on the schedule trigger and run exactly 5000 seeds while
fuzz-smoke runs exactly 200 — the two counts are checked
independently so scaling one cannot silently scale (or drop) the
other.  Registered as a ctest; tools/test_validate_ci.py mutates a
workflow copy to prove each check fires.
"""

import os
import sys

try:
    import yaml
except ImportError:
    # The CI contract cannot be validated without a YAML parser, but
    # a missing optional python module must not fail the build.
    print("pyyaml not available; skipping ci.yml validation")
    sys.exit(0)


def fail(msg):
    sys.exit(f"validate_ci: {msg}")


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        here, "..", ".github", "workflows", "ci.yml")

    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = yaml.safe_load(f)
        except yaml.YAMLError as err:
            fail(f"{path} is not valid YAML: {err}")

    if not isinstance(doc, dict):
        fail("workflow root is not a mapping")

    # PyYAML 1.1 reads a bare `on:` key as boolean True.
    triggers = doc.get("on", doc.get(True))
    if triggers is None:
        fail("workflow has no `on:` triggers")
    if "push" not in triggers or "pull_request" not in triggers:
        fail("workflow must trigger on push and pull_request")
    if "schedule" not in triggers:
        fail("workflow must carry the schedule trigger "
             "(the nightly fuzz-extended sweep rides on it)")

    jobs = doc.get("jobs")
    if not isinstance(jobs, dict):
        fail("workflow has no jobs")

    for required in ("build-test", "sanitize", "tsan", "format",
                     "bench-smoke", "perf-smoke", "fuzz-smoke",
                     "optgap", "sim-speed"):
        if required not in jobs:
            fail(f"required job missing: {required}")

    for name, job in jobs.items():
        # A job without a timeout idles a wedged runner for the
        # 6-hour GitHub default.
        if not isinstance(job.get("timeout-minutes"), int):
            fail(f"job {name} has no timeout-minutes")

    matrix = jobs["build-test"].get("strategy", {}).get("matrix", {})
    if sorted(matrix.get("compiler", [])) != ["clang", "gcc"]:
        fail("build-test matrix must cover gcc and clang")
    if sorted(matrix.get("build_type", [])) != ["Debug", "Release"]:
        fail("build-test matrix must cover Release and Debug")

    def steps_text(job):
        return "\n".join(
            str(step.get("run", "")) + str(step.get("uses", ""))
            for step in jobs[job].get("steps", []))

    if "ctest" not in steps_text("build-test"):
        fail("build-test must run ctest")
    san = steps_text("sanitize")
    if "SELVEC_SANITIZE=address,undefined" not in san:
        fail("sanitize must configure -DSELVEC_SANITIZE=address,undefined")
    if "fuzzish" not in san or "hotpath" not in san:
        fail("sanitize must run the fuzzish and hotpath ctest labels")
    tsan = steps_text("tsan")
    if "SELVEC_SANITIZE=thread" not in tsan:
        fail("tsan must configure -DSELVEC_SANITIZE=thread")
    if "parallel" not in tsan or "fuzzish" not in tsan:
        fail("tsan must run the parallel and fuzzish ctest labels")
    if "clang-format" not in steps_text("format"):
        fail("format job must invoke clang-format")
    bench = steps_text("bench-smoke")
    if "--json" not in bench:
        fail("bench-smoke must produce a --json document")
    if "--jobs 1" not in bench or "--jobs 8" not in bench:
        fail("bench-smoke must assert --jobs 1 vs --jobs 8 determinism")
    # The schedule memo must never change a document: one step renders
    # with the memo off and byte-compares against the cached render.
    if not any("--no-cache" in str(step.get("run", ""))
               and "cmp " in str(step.get("run", ""))
               for step in jobs["bench-smoke"].get("steps", [])):
        fail("bench-smoke must cmp a --no-cache document against "
             "the cached one")
    if "upload-artifact" not in bench:
        fail("bench-smoke must upload the JSON artifact")
    if "bench_compare.py" not in bench:
        fail("bench-smoke must diff against the checked-in baseline")
    if "BENCH_baseline.json" not in bench:
        fail("bench-smoke must reference BENCH_baseline.json")
    # The Table 2 document is deterministic, so its diff is the same
    # exact gate the other counter documents get, never a warning.
    if not any("bench_compare.py" in str(step.get("run", ""))
               and "--counters" in str(step.get("run", ""))
               and "BENCH_baseline.json" in str(step.get("run", ""))
               for step in jobs["bench-smoke"].get("steps", [])):
        fail("bench-smoke must gate counters against "
             "BENCH_baseline.json with bench_compare.py --counters")
    perf = steps_text("perf-smoke")
    if "-L hotpath" not in perf:
        fail("perf-smoke must run the hotpath ctest label")
    if "bench_hotpath" not in perf:
        fail("perf-smoke must run bench_hotpath")
    if "upload-artifact" not in perf:
        fail("perf-smoke must upload the hot-path JSON artifact")
    if "--counters" not in perf or "BENCH_hotpath.json" not in perf:
        fail("perf-smoke must gate counters against BENCH_hotpath.json")
    perf_env = "\n".join(
        str(step.get("env", ""))
        for step in jobs["perf-smoke"].get("steps", []))
    if "SELVEC_CHECK_INCREMENTAL" not in perf_env:
        fail("perf-smoke must run under SELVEC_CHECK_INCREMENTAL")
    fuzz = steps_text("fuzz-smoke")
    if "-L containment" not in fuzz:
        fail("fuzz-smoke must run the containment ctest label")
    if "selvec_fuzz" not in fuzz:
        fail("fuzz-smoke must run the selvec_fuzz sweep")
    if "--deadline-ms" not in fuzz:
        fail("fuzz-smoke must bound each seed with --deadline-ms")
    if "--repro-dir" not in fuzz or "--replay-check" not in fuzz:
        fail("fuzz-smoke must write and replay-check repro bundles")
    if "upload-artifact" not in fuzz:
        fail("fuzz-smoke must upload repro bundles on failure")
    # The two seed counts are pinned independently: a refactor that
    # parameterizes both from one variable could otherwise scale the
    # push gate to nightly depth (or the nightly sweep down to the
    # smoke count) in one edit nobody reviews.
    if "--seeds 200" not in fuzz:
        fail("fuzz-smoke must run exactly --seeds 200")

    if "fuzz-extended" not in jobs:
        fail("required job missing: fuzz-extended")
    if "schedule" not in str(jobs["fuzz-extended"].get("if", "")):
        fail("fuzz-extended must be gated on the schedule trigger")
    ext = steps_text("fuzz-extended")
    if "--seeds 5000" not in ext:
        fail("fuzz-extended must run exactly --seeds 5000")
    if "--replay-check" not in ext or "--repro-dir" not in ext:
        fail("fuzz-extended must write and replay-check repro bundles")
    if "upload-artifact" not in ext:
        fail("fuzz-extended must upload repro bundles on failure")

    optgap = steps_text("optgap")
    if "-L optgap" not in optgap:
        fail("optgap must run the optgap ctest label")
    if "bench_optgap" not in optgap:
        fail("optgap must run bench_optgap")
    if "upload-artifact" not in optgap:
        fail("optgap must upload the optgap JSON artifact")
    if "--counters" not in optgap or "BENCH_optgap.json" not in optgap:
        fail("optgap must gate counters against BENCH_optgap.json")

    sim = steps_text("sim-speed")
    if "-L simspeed" not in sim:
        fail("sim-speed must run the simspeed ctest label")
    if "bench_simspeed" not in sim:
        fail("sim-speed must run bench_simspeed")
    if "upload-artifact" not in sim:
        fail("sim-speed must upload the simspeed JSON artifact")
    if "--counters" not in sim or "BENCH_simspeed.json" not in sim:
        fail("sim-speed must gate counters against BENCH_simspeed.json")
    # The full-suite run under the reference check is the lane's whole
    # point: every pipelined run re-run on the reference engine.
    sim_env = "\n".join(
        str(step.get("env", ""))
        for step in jobs["sim-speed"].get("steps", []))
    if "SELVEC_CHECK_SIM" not in sim_env:
        fail("sim-speed must run the suite under the SELVEC_CHECK_SIM "
             "reference check")

    print(f"ok: {os.path.relpath(path)} has all nine contract lanes")


if __name__ == "__main__":
    main()
