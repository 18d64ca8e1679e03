/**
 * @file
 * The hot-path throughput benchmark: how fast the compile inner loops
 * run, tracked as a perf trajectory across PRs.
 *
 * Two hot paths are measured on generator-scaled loop classes:
 *
 *  - the KL partitioner's TEST-REPARTITION / SWITCH-OP cycle
 *    (ns per evaluated move, moves per second);
 *  - the iterative modulo scheduler's placement loop (ns per MRT
 *    placement, placements per second).
 *
 * The emitted selvec-bench-v1 document separates two kinds of metric:
 *
 *  - counters (movesEvaluated, movesCommitted, attempts, backtracks,
 *    placements) are deterministic functions of the generated loops —
 *    CI asserts them exactly unchanged against the checked-in
 *    BENCH_hotpath.json via tools/bench_compare.py --counters;
 *  - timings (ns_per_move, moves_per_second, ...) are wall-clock and
 *    emitted as 0 unless SELVEC_TIMINGS is set, the same opt-in the
 *    stats registry uses, so documents stay byte-stable.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/depgraph.hh"
#include "analysis/vectorizable.hh"
#include "bench_common.hh"
#include "core/partition.hh"
#include "machine/machine.hh"
#include "pipeline/lowering.hh"
#include "pipeline/modsched.hh"
#include "workloads/generator.hh"

namespace
{

using namespace selvec;

/** One generator-scaled loop class of the trajectory. */
struct ClassSpec
{
    const char *name;
    int ops;        ///< target operation count per loop
    int loops;      ///< loops generated for the class
};

/**
 * The size ladder. "large" is the class the acceptance bar tracks;
 * its op count is chosen so the partitioner's O(moves) inner loop
 * dominates and allocation overhead (if any crept back in) is
 * visible.
 */
constexpr ClassSpec kClasses[] = {
    {"small", 16, 6},
    {"medium", 64, 4},
    {"large", 192, 3},
};

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
timingsEnabled()
{
    const char *timings = std::getenv("SELVEC_TIMINGS");
    return timings != nullptr && std::string(timings) != "0" &&
           std::string(timings) != "";
}

/** Everything measured for one loop class. */
struct ClassResult
{
    int64_t opsGenerated = 0;

    // Partitioner counters (one partitionOps run per loop).
    int64_t movesEvaluated = 0;
    int64_t movesCommitted = 0;
    int64_t klIterations = 0;

    // Scheduler counters (one moduloSchedule run per loop).
    int64_t attempts = 0;
    int64_t backtracks = 0;
    int64_t placements = 0;

    // Wall clock over the timing reps.
    int64_t partitionNs = 0;
    int64_t partitionMoves = 0;
    int64_t scheduleNs = 0;
    int64_t schedulePlacements = 0;
};

struct PreparedLoop
{
    GeneratedLoop gen;
    VectAnalysis va;
    Loop lowered;
    DepGraph loweredGraph;

    PreparedLoop(GeneratedLoop g, const Machine &machine)
        : gen(std::move(g)),
          va(), lowered(), loweredGraph(prepare(machine))
    {
    }

  private:
    DepGraph
    prepare(const Machine &machine)
    {
        DepGraph graph(gen.module.arrays, gen.loop(), machine);
        va = analyzeVectorizable(gen.loop(), graph, machine);
        lowered = lowerForScheduling(gen.loop(), machine);
        return DepGraph(gen.module.arrays, lowered, machine);
    }
};

ClassResult
runClass(const ClassSpec &spec, const Machine &machine, int reps)
{
    ClassResult r;

    std::vector<PreparedLoop> loops;
    for (int i = 0; i < spec.loops; ++i) {
        Rng rng(0xB0B0'0000u + 977u * static_cast<uint64_t>(spec.ops) +
                static_cast<uint64_t>(i));
        GeneratorOptions options;
        options.minOps = spec.ops;
        options.maxOps = spec.ops;
        loops.emplace_back(generateLoop(rng, options), machine);
    }

    // Counter pass: one run per loop, exact and deterministic.
    PartitionOptions popt;
    for (const PreparedLoop &pl : loops) {
        r.opsGenerated += pl.gen.loop().numOps();
        PartitionResult pr =
            partitionOps(pl.gen.loop(), pl.va, machine, popt);
        r.movesEvaluated += pr.movesEvaluated;
        r.movesCommitted += pr.movesCommitted;
        r.klIterations += pr.iterations;

        ScheduleResult sr =
            moduloSchedule(pl.lowered, pl.loweredGraph, machine);
        r.attempts += sr.attempts;
        r.backtracks += sr.backtracks;
        r.placements += sr.placements;
    }

    // Timing pass: the probe for throughput turns the informational
    // all-vector cost off — it builds a second full cost model per
    // run and would dilute the moves/s number with setup work.
    PartitionOptions hot = popt;
    hot.probeAllVectorCost = false;
    int64_t t0 = nowNs();
    for (int rep = 0; rep < reps; ++rep) {
        for (const PreparedLoop &pl : loops) {
            PartitionResult pr =
                partitionOps(pl.gen.loop(), pl.va, machine, hot);
            r.partitionMoves += pr.movesEvaluated;
        }
    }
    r.partitionNs = nowNs() - t0;

    t0 = nowNs();
    for (int rep = 0; rep < reps; ++rep) {
        for (const PreparedLoop &pl : loops) {
            ScheduleResult sr =
                moduloSchedule(pl.lowered, pl.loweredGraph, machine);
            r.schedulePlacements += sr.placements;
        }
    }
    r.scheduleNs = nowNs() - t0;
    return r;
}

double
perSecond(int64_t count, int64_t ns)
{
    return ns > 0 ? static_cast<double>(count) * 1e9 /
                        static_cast<double>(ns)
                  : 0.0;
}

double
nsPer(int64_t ns, int64_t count)
{
    return count > 0 ? static_cast<double>(ns) /
                           static_cast<double>(count)
                     : 0.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace selvec;
    BenchCli cli = BenchCli::parse(argc, argv);
    Machine machine = paperMachine();
    bool timed = timingsEnabled();
    int reps = cli.quick ? 2 : 12;

    JsonValue doc = benchDocument("bench_hotpath", cli.mode());
    JsonValue classes = JsonValue::array();

    std::printf("Hot-path throughput (%s mode, %d timing reps%s)\n",
                cli.mode(), reps,
                timed ? "" : "; set SELVEC_TIMINGS=1 for rates");
    std::printf("%-8s %6s %10s %11s %11s %11s %12s\n", "class", "ops",
                "moves", "ns/move", "moves/s", "placements",
                "ns/placement");

    for (const ClassSpec &spec : kClasses) {
        ClassResult r = runClass(spec, machine, reps);

        double ns_move = nsPer(r.partitionNs, r.partitionMoves);
        double moves_s = perSecond(r.partitionMoves, r.partitionNs);
        double ns_place = nsPer(r.scheduleNs, r.schedulePlacements);
        double place_s =
            perSecond(r.schedulePlacements, r.scheduleNs);

        std::printf("%-8s %6lld %10lld %11.1f %11.0f %11lld %12.1f\n",
                    spec.name,
                    static_cast<long long>(r.opsGenerated),
                    static_cast<long long>(r.movesEvaluated),
                    timed ? ns_move : 0.0, timed ? moves_s : 0.0,
                    static_cast<long long>(r.placements),
                    timed ? ns_place : 0.0);

        JsonValue cls = JsonValue::object();
        cls.set("name", spec.name);
        cls.set("loops", spec.loops);
        cls.set("ops", r.opsGenerated);

        JsonValue part = JsonValue::object();
        part.set("movesEvaluated", r.movesEvaluated);
        part.set("movesCommitted", r.movesCommitted);
        part.set("klIterations", r.klIterations);
        part.set("ns_per_move", timed ? ns_move : 0.0);
        part.set("moves_per_second", timed ? moves_s : 0.0);
        cls.set("partition", std::move(part));

        JsonValue sched = JsonValue::object();
        sched.set("attempts", r.attempts);
        sched.set("backtracks", r.backtracks);
        sched.set("placements", r.placements);
        sched.set("ns_per_placement", timed ? ns_place : 0.0);
        sched.set("placements_per_second", timed ? place_s : 0.0);
        cls.set("modsched", std::move(sched));

        classes.append(std::move(cls));
    }

    doc.set("classes", std::move(classes));
    finishBenchJson(cli, doc);
    return 0;
}
