#!/usr/bin/env python3
"""Compare two selvec-bench-v1 JSON documents for cycle regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [options]

Walks both documents, pairs up every per-loop cycle metric by its JSON
path (suite position, technique position and loop name are part of the
selvec-bench-v1 schema, so paths are stable across runs), and reports
the geometric-mean cycle ratio candidate/baseline plus the worst
individual regressions.

Exit codes:
    0  no regression beyond the threshold, or not running --strict
    1  --strict and the geomean regression exceeds the threshold
    2  usage error, unreadable/incomparable documents

By default the script only *warns* about regressions so a freshly
wired CI lane cannot brick the queue; pass --strict to turn the
threshold into a gate.  Cycle counts come from the deterministic
simulator, so any same-mode documents are comparable across machines;
quick-mode and full-mode documents are NOT comparable (different
workload weights) and the script refuses to compare them.

Quarantined loops ("failures" arrays, present when a kernel tripped
its deadline, the cycle watchdog or an injected fault) are tolerated:
each one is reported with its suite, loop and error code, the
quarantined loop simply drops out of the cycle pairing, and — since a
quarantined loop in the candidate usually means a kernel silently
stopped being compiled — candidate failures exit 1 under --strict.

--counters switches to exact-match mode for deterministic documents
(CI gates BENCH_baseline.json, BENCH_hotpath.json, BENCH_optgap.json
and BENCH_simspeed.json with it): every numeric leaf shared by the
two documents, cycle counts included, must be exactly equal, and a
leaf present on only one side is an error.  Timing leaves (ns_*,
*_per_second, *_ns keys) are excluded — they are zeroed in CI
documents and nondeterministic elsewhere.  Exits 1 on any mismatch.
"""

import argparse
import json
import math
import sys

# Leaf keys that carry comparable cycle counts.  weighted_cycles is
# the per-loop metric in suite comparisons; plain cycles is the
# per-technique metric emitted by selvec_explore.
CYCLE_KEYS = ("weighted_cycles", "cycles")

SCHEMA = "selvec-bench-v1"


def collect(node, path, out):
    """Map "suites[0].techniques[2].loops[nasa7_l1]" -> cycles."""
    if isinstance(node, dict):
        label = node.get("name") or node.get("suite")
        for key, value in node.items():
            if key in CYCLE_KEYS and isinstance(value, (int, float)):
                leaf = f"{path}.{key}" if path else key
                if label:
                    leaf = f"{path}[{label}].{key}"
                out[leaf] = float(value)
            else:
                collect(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            collect(value, f"{path}[{i}]", out)


def collect_failures(node, path, out):
    """Map each quarantined-loop entry ("failures" arrays of the
    selvec-bench-v1 schema) to a one-line description."""
    if isinstance(node, dict):
        label = node.get("name") or node.get("suite")
        for key, value in node.items():
            leaf = f"{path}[{label}].{key}" if label else (
                f"{path}.{key}" if path else key)
            if key == "failures" and isinstance(value, list):
                for entry in value:
                    if not isinstance(entry, dict):
                        continue
                    out.append(
                        f"{leaf}[{entry.get('name')}]: "
                        f"{entry.get('error_code')} at "
                        f"{entry.get('stage')}")
            else:
                collect_failures(value, leaf, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            collect_failures(value, f"{path}[{i}]", out)


def is_timing_key(key):
    """Timing leaves are excluded from --counters exact matching."""
    return (key.startswith("ns_") or key.endswith("_per_second")
            or key.endswith("_ns"))


def collect_counters(node, path, out):
    """Map every non-timing numeric leaf to its value, by JSON path."""
    if isinstance(node, dict):
        label = node.get("name") or node.get("suite")
        for key, value in node.items():
            leaf = f"{path}[{label}].{key}" if label else (
                f"{path}.{key}" if path else key)
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                if not is_timing_key(key):
                    out[leaf] = value
            else:
                collect_counters(value, leaf, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            collect_counters(value, f"{path}[{i}]", out)


def compare_counters(base_doc, cand_doc, base_name, cand_name):
    """Exact-match every shared non-timing numeric leaf; exit 1 on
    any mismatch or any one-sided leaf."""
    base, cand = {}, {}
    collect_counters(base_doc, "", base)
    collect_counters(cand_doc, "", cand)

    failures = []
    for path in sorted(set(base) - set(cand)):
        failures.append(f"only in baseline: {path} = {base[path]}")
    for path in sorted(set(cand) - set(base)):
        failures.append(f"only in candidate: {path} = {cand[path]}")
    shared = sorted(set(base) & set(cand))
    for path in shared:
        if base[path] != cand[path]:
            failures.append(f"mismatch: {path}: "
                            f"{base[path]} -> {cand[path]}")

    print(f"{len(shared)} counter metrics compared "
          f"({base_doc.get('generator')}, "
          f"mode={base_doc.get('mode')})")
    if failures:
        for line in failures:
            print(f"  {line}")
        sys.exit(f"bench_compare: {len(failures)} counter "
                 f"difference(s) between {base_name} and {cand_name}")
    if not shared:
        sys.exit("bench_compare: no counter metrics found")
    print("ok: all counters exactly equal")
    return 0


def load(path):
    # A missing, truncated or non-bench document is a hard usage
    # error (exit 2) no matter what --strict says: exit 1 is reserved
    # for a *comparison* verdict, and a CI lane whose candidate file
    # vanished must never be mistaken for a lane that measured a
    # regression (or worse, for a clean warn-only pass).
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: cannot read {path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        schema = doc.get("schema") if isinstance(doc, dict) else None
        print(f"bench_compare: {path} is not a {SCHEMA} document "
              f"(schema: {schema!r})", file=sys.stderr)
        sys.exit(2)
    return doc


def main():
    ap = argparse.ArgumentParser(
        description="diff two selvec-bench-v1 JSON documents")
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when the geomean regression exceeds "
                         "the threshold (default: warn only)")
    ap.add_argument("--threshold", type=float, default=0.05,
                    help="geomean regression gate as a fraction "
                         "(default: 0.05 = 5%%)")
    ap.add_argument("--top", type=int, default=10,
                    help="how many of the worst per-loop regressions "
                         "to print (default: 10)")
    ap.add_argument("--counters", action="store_true",
                    help="exact-match every non-timing numeric leaf, "
                         "cycle counts included, instead of comparing "
                         "cycle ratios (for deterministic documents); "
                         "exits 1 on any difference")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)

    if base_doc.get("mode") != cand_doc.get("mode"):
        # Incomparable documents are the same hard-error class as
        # unreadable ones.
        print(f"bench_compare: mode mismatch "
              f"({base_doc.get('mode')!r} vs {cand_doc.get('mode')!r}); "
              f"quick- and full-mode cycle counts use different "
              f"workload weights and are not comparable",
              file=sys.stderr)
        sys.exit(2)

    if args.counters:
        return compare_counters(base_doc, cand_doc,
                                args.baseline, args.candidate)

    base_failures, cand_failures = [], []
    collect_failures(base_doc, "", base_failures)
    collect_failures(cand_doc, "", cand_failures)
    for line in base_failures:
        print(f"warning: baseline quarantined loop: {line}")
    for line in cand_failures:
        print(f"warning: candidate quarantined loop: {line}")

    base, cand = {}, {}
    collect(base_doc, "", base)
    collect(cand_doc, "", cand)

    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    for path in only_base:
        print(f"warning: only in baseline: {path}")
    for path in only_cand:
        print(f"warning: only in candidate: {path}")

    ratios = []
    for path in shared:
        if base[path] <= 0 or cand[path] <= 0:
            # A zero cycle count is a degenerate document (empty
            # suite, failed run), not a 0-cost loop; a silent skip
            # would let such a metric vanish from the geomean.
            print(f"warning: skipping {path}: non-positive cycles "
                  f"(baseline {base[path]:g}, "
                  f"candidate {cand[path]:g})")
            continue
        ratios.append((cand[path] / base[path], path))
    if not ratios:
        sys.exit("bench_compare: no comparable cycle metrics found")

    geomean = math.exp(sum(math.log(r) for r, _ in ratios) / len(ratios))
    worst = sorted(ratios, reverse=True)[:args.top]

    print(f"{len(ratios)} cycle metrics compared "
          f"({base_doc.get('generator')}, mode={base_doc.get('mode')})")
    print(f"geomean cycle ratio candidate/baseline: {geomean:.4f} "
          f"({(geomean - 1) * 100:+.2f}%)")
    for ratio, path in worst:
        if ratio > 1.0:
            print(f"  {ratio:7.4f}  {path}")

    if cand_failures:
        verdict = (f"QUARANTINE: candidate carries "
                   f"{len(cand_failures)} quarantined loop(s)")
        if args.strict:
            sys.exit(verdict)
        print(f"warning: {verdict} (pass --strict to gate)")

    if geomean > 1.0 + args.threshold:
        verdict = (f"REGRESSION: geomean cycles up "
                   f"{(geomean - 1) * 100:.2f}% "
                   f"(threshold {args.threshold * 100:.0f}%)")
        if args.strict:
            sys.exit(verdict)
        print(f"warning: {verdict} (pass --strict to gate)")
    else:
        print("ok: within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
