/**
 * @file
 * selvec_fuzz: randomized end-to-end sweep against the reference
 * oracle, with failure containment and replayable repro bundles.
 *
 *   selvec_fuzz [--seeds N] [--seed-start N] [--deadline-ms N]
 *               [--repro-dir D] [--force-fault SPEC] [--replay-check]
 *   selvec_fuzz --optgap [--seeds N] [--seed-start N] [--deadline-ms N]
 *
 * Each seed deterministically derives a generated loop, a randomized
 * stock-machine variant, a technique, a trip count and (for ~30% of
 * seeds, unless --force-fault pins one) a fault-injection plan, then
 * runs the full pipeline under a per-seed deadline and the simulator
 * watchdog — compile, the DESIGN.md §6.3/§6.4/§6.5 invariants on the
 * compiled program, bounded pipelined execution, bitwise verification
 * against the reference interpreter.
 *
 * Every sweep runs with the SELVEC_CHECK_SIM reference check on: each
 * pipelined run, main and cleanup loops of every technique included,
 * is re-run on the sequential reference engine from the memory it
 * started from, and a divergence in outputs, memory or the exit-free
 * closed-form cycle count aborts the sweep on the spot.
 *
 * Outcomes per seed:
 *   clean      — compiled, ran, verified;
 *   contained  — a structured failure (injected fault, deadline,
 *                watchdog, schedule/partition exhaustion) that the
 *                containment layer absorbed; expected, not a bug;
 *   finding    — a verification divergence, a broken §6.3/§6.4/§6.5
 *                invariant or an escape below the Status layer: a
 *                real bug. Findings are minimized by greedy
 *                body-line deletion and exit the sweep with status 1.
 *
 * With --repro-dir every non-clean seed writes a selvec-repro-v1
 * bundle (seed<N>.repro.json); --replay-check re-loads each written
 * bundle and asserts selvec_replay-style reproduction, closing the
 * loop on bundle fidelity. --replay-check without --repro-dir is a
 * usage error (exit 2): no bundle would be written, so the check
 * would replay nothing.
 *
 * --optgap switches to the differential partition-oracle sweep: each
 * seed's loop is partitioned twice — the KL heuristic against the
 * exact branch-and-bound oracle — and the sweep asserts the oracle
 * never costs more than KL (it starts from the KL incumbent, so a
 * regression is a bug in the search, not bad luck). Any seed with a
 * strict gap is additionally replayed end-to-end under
 * strategy=exact: the cheaper partition must still produce a
 * checker-clean program. The mode injects no faults and writes no
 * bundle, so --optgap with --repro-dir, --replay-check or
 * --force-fault is a usage error (exit 2), like --replay-check alone:
 * the flag would be silently ignored.
 *
 * The sweep is serial by design: fault plans are process-global.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/depgraph.hh"
#include "analysis/vectorizable.hh"
#include "core/partition.hh"
#include "driver/repro.hh"
#include "lir/lir.hh"
#include "support/checkmode.hh"
#include "support/faultinject.hh"
#include "support/parsenum.hh"
#include "support/random.hh"
#include "workloads/generator.hh"

using namespace selvec;

namespace
{

struct FuzzConfig
{
    uint64_t seedStart = 1;
    int64_t seeds = 50;
    int64_t deadlineMs = 2000;
    std::string reproDir;
    std::string forceFault;
    bool replayCheck = false;
    bool optgap = false;
};

enum class OutcomeClass { Clean, Contained, Finding };

/** Classify a replay status: a divergence or an escape below the
 *  Status layer is a finding; any other structured failure is the
 *  containment layer doing its job. An injected fault is always
 *  contained, whatever its code — fault sites deliberately surface
 *  Internal (lowering) and VerifyFailed (checker) to prove those
 *  codes propagate, and every injection message names its site. */
OutcomeClass
classify(const Status &status)
{
    if (status.ok())
        return OutcomeClass::Clean;
    if (status.message().find("fault injected at") !=
        std::string::npos)
        return OutcomeClass::Contained;
    if (status.code() == ErrorCode::Internal ||
        status.code() == ErrorCode::InvalidInput ||
        (status.code() == ErrorCode::VerifyFailed &&
         (status.stage() == "verify" || status.stage() == "replay")))
        return OutcomeClass::Finding;
    return OutcomeClass::Contained;
}

/** The candidate configuration a seed deterministically derives. */
ReproBundle
candidateForSeed(uint64_t seed, const FuzzConfig &config)
{
    Rng rng(seed);
    GeneratorOptions gopt;
    GeneratedLoop gen = generateLoop(rng, gopt);

    ReproBundle bundle;
    bundle.name = gen.loop().name;
    bundle.module = gen.module;
    bundle.liveIns = gen.liveIns;
    bundle.seed = seed;
    bundle.tripCount = rng.range(1, gopt.maxTrip);
    bundle.invocations = 1;
    bundle.memPattern =
        static_cast<int64_t>(0xC0FFEEULL ^ seed);
    bundle.deadlineMs = config.deadlineMs;

    // A randomized variant of a stock machine; revert any tweak that
    // makes the description invalid.
    Machine stock;
    switch (rng.range(0, 3)) {
    case 0: stock = paperMachine(); break;
    case 1: stock = directMoveMachine(); break;
    case 2: stock = wideMachine(); break;
    default: stock = embeddedMachine(); break;
    }
    Machine machine = stock;
    if (rng.chance(0.25))
        machine.alignment =
            machine.alignment == AlignPolicy::AssumeAligned
                ? AlignPolicy::AssumeMisaligned
                : AlignPolicy::AssumeAligned;
    machine.invocationOverhead =
        static_cast<int>(rng.range(0, 24));
    if (!machine.check().empty())
        machine = stock;
    bundle.machine = machine;

    bundle.technique =
        static_cast<Technique>(rng.range(
            0, static_cast<int>(Technique::IterationSplit)));

    if (!config.forceFault.empty()) {
        bundle.faultPlan = config.forceFault;
    } else if (rng.chance(0.3)) {
        // Only instant sites: modsched.stall sleeps out the whole
        // deadline, which would make a wide sweep crawl.
        static const char *const kSites[] = {
            "partition.kl", "modsched.search", "lowering.lower",
            "checker.validate", "sim.watchdog",
        };
        const char *site = kSites[rng.range(0, 4)];
        bundle.faultPlan =
            std::string(site) + ":" +
            std::to_string(rng.range(0, 2)) + "+1";
    }
    return bundle;
}

/**
 * Greedy minimizer: repeatedly delete single LIR lines while the
 * failure keeps the same class and error code. Structural deletions
 * fail to re-parse and are skipped automatically.
 */
ReproBundle
minimizeFinding(const ReproBundle &finding)
{
    ReproBundle best = finding;
    Status want = replayBundle(best).status;
    if (classify(want) != OutcomeClass::Finding)
        return best;

    // Greedy restart-scan is O(lines^2) replays; a budget keeps a
    // pathological finding from stalling the whole sweep.
    int replaysLeft = 400;
    bool shrunk = true;
    while (shrunk) {
        shrunk = false;
        std::string text = writeLir(best.module);
        std::vector<std::string> lines;
        size_t pos = 0;
        while (pos <= text.size()) {
            size_t nl = text.find('\n', pos);
            if (nl == std::string::npos) {
                if (pos < text.size())
                    lines.push_back(text.substr(pos));
                break;
            }
            lines.push_back(text.substr(pos, nl - pos));
            pos = nl + 1;
        }
        for (size_t drop = 0; drop < lines.size(); ++drop) {
            std::string candidate;
            for (size_t i = 0; i < lines.size(); ++i)
                if (i != drop)
                    candidate += lines[i] + "\n";
            Expected<Module> reparsed = tryParseLir(candidate);
            if (!reparsed.ok() || reparsed.value().loops.empty())
                continue;
            if (--replaysLeft < 0)
                return best;
            ReproBundle trial = best;
            trial.module = reparsed.value();
            trial.name = trial.module.loops.front().name;
            Status got = replayBundle(trial).status;
            if (classify(got) == OutcomeClass::Finding &&
                got.code() == want.code()) {
                best = trial;
                want = got;
                shrunk = true;
                break;
            }
        }
    }
    best.failure = want;
    return best;
}

/**
 * The differential partition-oracle sweep (--optgap): for every seed,
 * KL vs the exact branch-and-bound oracle on the same loop/machine.
 * Exit 1 on any violation of exact_cost <= kl_cost, or on a gap seed
 * whose exact-strategy end-to-end replay is a finding.
 */
int
runOptgapSweep(const FuzzConfig &config)
{
    int checked = 0, skipped = 0, gaps = 0, findings = 0;
    for (int64_t i = 0; i < config.seeds; ++i) {
        uint64_t seed = config.seedStart + static_cast<uint64_t>(i);
        ReproBundle bundle = candidateForSeed(seed, config);
        // No fault injection: this sweep differentiates two clean
        // partitioners, not the containment layer.
        bundle.faultPlan.clear();
        bundle.technique = Technique::Selective;

        const Loop &loop = bundle.module.loops.front();
        DepGraph graph(bundle.module.arrays, loop, bundle.machine);
        VectAnalysis va = analyzeVectorizable(
            loop, graph, bundle.machine, bundle.options.vectorize);

        PartitionOptions popt = bundle.options.partition;
        popt.strategy = PartitionStrategy::Kl;
        PartitionResult kl =
            partitionOps(loop, va, bundle.machine, popt);
        popt.strategy = PartitionStrategy::Exact;
        PartitionResult exact =
            partitionOps(loop, va, bundle.machine, popt);
        ++checked;

        if (!exact.exactProven) {
            // Budget stop: Unproven keeps the KL incumbent, so the
            // inequality below still holds; count it separately.
            ++skipped;
        }
        if (exact.bestCost > kl.bestCost ||
            exact.klCost != kl.bestCost || exact.exactGap < 0) {
            ++findings;
            std::printf("seed %llu: FINDING: exact cost %lld vs KL "
                        "%lld (recorded kl=%lld gap=%lld)\n",
                        static_cast<unsigned long long>(seed),
                        static_cast<long long>(exact.bestCost),
                        static_cast<long long>(kl.bestCost),
                        static_cast<long long>(exact.klCost),
                        static_cast<long long>(exact.exactGap));
            continue;
        }
        if (exact.exactGap == 0)
            continue;

        // A strict gap: the cheaper partition must still compile to a
        // checker-clean program end to end. Contained structured
        // failures (schedule exhaustion, watchdog) are tolerated —
        // the oracle changes the partition, not the containment
        // contract.
        ++gaps;
        bundle.options.partition.strategy = PartitionStrategy::Exact;
        Status status = replayBundle(bundle).status;
        if (classify(status) == OutcomeClass::Finding) {
            ++findings;
            std::printf("seed %llu: FINDING: gap %lld but exact "
                        "replay failed: %s\n",
                        static_cast<unsigned long long>(seed),
                        static_cast<long long>(exact.exactGap),
                        status.str().c_str());
        } else {
            std::printf("seed %llu: gap %lld (KL %lld -> exact %lld)"
                        ", exact replay %s\n",
                        static_cast<unsigned long long>(seed),
                        static_cast<long long>(exact.exactGap),
                        static_cast<long long>(kl.bestCost),
                        static_cast<long long>(exact.bestCost),
                        status.ok() ? "clean" : "contained");
        }
    }
    std::printf("optgap: %lld seeds, %d checked, %d unproven, %d gaps, "
                "%d findings\n",
                static_cast<long long>(config.seeds), checked, skipped,
                gaps, findings);
    return findings != 0 ? 1 : 0;
}

/** Print the usage line; returns the usage-error exit status. */
int
usage()
{
    std::fprintf(stderr,
                 "usage: selvec_fuzz [--seeds N] [--seed-start N] "
                 "[--deadline-ms N] [--repro-dir D] "
                 "[--force-fault SPEC] [--replay-check]\n"
                 "       selvec_fuzz --optgap [--seeds N] "
                 "[--seed-start N] [--deadline-ms N]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    FuzzConfig config;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Strict counts: a typo in a sweep's command line is a usage
        // error (exit 2), never a silent zero-seed pass.
        auto intArg = [&](const char *name, int64_t *out) {
            std::string prefix = std::string(name) + "=";
            const char *text = nullptr;
            if (arg == name && i + 1 < argc)
                text = argv[++i];
            else if (arg.rfind(prefix, 0) == 0)
                text = arg.c_str() + prefix.size();
            else
                return false;
            if (!parseNonNegInt(text, out)) {
                std::fprintf(stderr,
                             "%s: expected a non-negative integer, "
                             "got '%s'\n",
                             name, text);
                std::exit(usage());
            }
            return true;
        };
        auto strArg = [&](const char *name, std::string *out) {
            std::string prefix = std::string(name) + "=";
            if (arg == name && i + 1 < argc) {
                *out = argv[++i];
                return true;
            }
            if (arg.rfind(prefix, 0) == 0) {
                *out = arg.substr(prefix.size());
                return true;
            }
            return false;
        };
        int64_t n = 0;
        if (intArg("--seeds", &n)) {
            config.seeds = n;
        } else if (intArg("--seed-start", &n)) {
            config.seedStart = static_cast<uint64_t>(n);
        } else if (intArg("--deadline-ms", &n)) {
            config.deadlineMs = n;
        } else if (strArg("--repro-dir", &config.reproDir) ||
                   strArg("--force-fault", &config.forceFault)) {
            // consumed
        } else if (arg == "--replay-check") {
            config.replayCheck = true;
        } else if (arg == "--optgap") {
            config.optgap = true;
        } else {
            return usage();
        }
    }
    if (config.optgap &&
        (!config.reproDir.empty() || config.replayCheck ||
         !config.forceFault.empty())) {
        std::fprintf(stderr, "--optgap takes none of --repro-dir, "
                             "--replay-check, --force-fault: its "
                             "sweep injects no faults and writes no "
                             "bundle\n");
        return usage();
    }
    if (config.replayCheck && config.reproDir.empty()) {
        std::fprintf(stderr, "--replay-check needs --repro-dir: it "
                             "replays the bundles written there\n");
        return usage();
    }
    setCheckSim(true);
    if (config.optgap)
        return runOptgapSweep(config);
    if (!config.forceFault.empty()) {
        Expected<FaultPlan> plan = parseFaultPlan(config.forceFault);
        if (!plan.ok()) {
            std::fprintf(stderr, "--force-fault: %s\n",
                         plan.status().str().c_str());
            return 2;
        }
    }

    int clean = 0, contained = 0;
    int findings = 0, bundles = 0, replayMismatches = 0;
    for (int64_t i = 0; i < config.seeds; ++i) {
        uint64_t seed = config.seedStart + static_cast<uint64_t>(i);
        ReproBundle bundle = candidateForSeed(seed, config);
        Status status = replayBundle(bundle).status;
        OutcomeClass cls = classify(status);

        if (cls == OutcomeClass::Clean) {
            ++clean;
            continue;
        }
        if (cls == OutcomeClass::Contained) {
            ++contained;
            std::printf("seed %llu: contained: %s\n",
                        static_cast<unsigned long long>(seed),
                        status.str().c_str());
        } else {
            ++findings;
            std::printf("seed %llu: FINDING: %s\n",
                        static_cast<unsigned long long>(seed),
                        status.str().c_str());
            bundle = minimizeFinding(bundle);
            status = bundle.failure;
            std::printf("seed %llu: minimized to %d-op loop\n",
                        static_cast<unsigned long long>(seed),
                        bundle.module.loops.front().numOps());
        }
        bundle.failure = status;

        if (config.reproDir.empty())
            continue;
        std::string path = config.reproDir + "/seed" +
                           std::to_string(seed) + ".repro.json";
        Status written = writeReproBundle(path, bundle);
        if (!written) {
            std::fprintf(stderr, "seed %llu: bundle not written: %s\n",
                         static_cast<unsigned long long>(seed),
                         written.str().c_str());
            continue;
        }
        ++bundles;
        if (config.replayCheck) {
            Expected<ReproBundle> loaded = loadReproBundle(path);
            if (!loaded.ok() ||
                !replayBundle(loaded.value()).reproduced) {
                ++replayMismatches;
                std::fprintf(stderr,
                             "seed %llu: bundle did not reproduce\n",
                             static_cast<unsigned long long>(seed));
            }
        }
    }

    std::printf("fuzz: %lld seeds, %d clean, %d contained, %d findings, "
                "%d bundles%s\n",
                static_cast<long long>(config.seeds), clean, contained,
                findings, bundles,
                replayMismatches != 0 ? " (replay mismatches!)" : "");
    return findings != 0 || replayMismatches != 0 ? 1 : 0;
}
