/**
 * @file
 * Hot-path contract tests (ctest label `hotpath`, DESIGN.md §9):
 *
 *  - randomized property: after arbitrary testSwitch/commitSwitch
 *    sequences over generated loops, the incrementally maintained
 *    cost-model state (bins, high-water mark, squared sum) equals a
 *    fresh rebuild of the same partition — with the
 *    SELVEC_CHECK_INCREMENTAL cross-check armed, so every commit also
 *    self-verifies ledgers and transfer directions;
 *  - testSwitch restores its checkpoint exactly;
 *  - moduloSchedule produces identical schedules with the cross-check
 *    mode on and off (the mode additionally asserts, per placement,
 *    that the ready heap matches a priority scan and the MRT masks
 *    match the cells);
 *  - steady-state testSwitch/commitSwitch perform zero heap
 *    allocations;
 *  - computeRecMii equals the whole-graph Floyd-Warshall search it
 *    replaced (kept here as referenceRecMii) on the kernels, the suite
 *    loops and generated loops, and recurrencesAdmit agrees with the
 *    reference around each RecMII.
 *
 * This binary links the counting allocator (counting_alloc.cc), which
 * replaces the global operator new, so these tests live apart from
 * selvec_tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/depgraph.hh"
#include "analysis/recmii.hh"
#include "analysis/vectorizable.hh"
#include "core/costmodel.hh"
#include "core/partition.hh"
#include "core/transform.hh"
#include "counting_alloc.hh"
#include "kernel_files.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "pipeline/lowering.hh"
#include "pipeline/modsched.hh"
#include "support/checkmode.hh"
#include "support/random.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace selvec;

struct TestLoop
{
    GeneratedLoop gen;
    VectAnalysis va;
    std::vector<OpId> candidates;

    explicit TestLoop(uint64_t seed, int ops, const Machine &machine)
    {
        Rng rng(seed);
        GeneratorOptions options;
        options.minOps = ops;
        options.maxOps = ops;
        gen = generateLoop(rng, options);
        DepGraph graph(gen.module.arrays, gen.loop(), machine);
        va = analyzeVectorizable(gen.loop(), graph, machine);
        for (OpId op = 0; op < gen.loop().numOps(); ++op) {
            if (va.vectorizable[static_cast<size_t>(op)])
                candidates.push_back(op);
        }
    }
};

void
expectBinsEqual(const ReservationBins &a, const ReservationBins &b)
{
    ASSERT_EQ(a.numBins(), b.numBins());
    for (int u = 0; u < a.numBins(); ++u)
        EXPECT_EQ(a.weight(u), b.weight(u)) << "unit " << u;
    EXPECT_EQ(a.highWaterMark(), b.highWaterMark());
    EXPECT_EQ(a.sumSquares(), b.sumSquares());
}

TEST(Hotpath, IncrementalStateMatchesRebuildAfterRandomMoves)
{
    Machine machine = paperMachine();
    setCheckIncremental(true);
    for (uint64_t seed : {11u, 23u, 47u, 91u}) {
        TestLoop tl(0xB00000u ^ (seed * 7919u), 24, machine);
        if (tl.candidates.empty())
            continue;
        PartitionCostModel model(tl.gen.loop(), tl.va, machine);

        Rng rng(seed);
        for (int step = 0; step < 200; ++step) {
            OpId op = tl.candidates[static_cast<size_t>(rng.range(
                0, static_cast<int64_t>(tl.candidates.size()) - 1))];
            if (rng.chance(0.7)) {
                model.testSwitch(op);
            } else {
                // Self-verifies against a fresh rebuild (check mode).
                model.commitSwitch(op);
            }
            if (step % 25 == 0) {
                PartitionCostModel fresh(tl.gen.loop(), tl.va,
                                         machine);
                fresh.rebuild(model.partition());
                expectBinsEqual(model.binsRef(), fresh.binsRef());
                EXPECT_EQ(model.cost(), fresh.cost());
            }
        }
    }
    setCheckIncremental(false);
}

TEST(Hotpath, TestSwitchRestoresCheckpointExactly)
{
    Machine machine = paperMachine();
    for (uint64_t seed : {5u, 17u}) {
        TestLoop tl(0xC0FFEEu + seed, 20, machine);
        if (tl.candidates.empty())
            continue;
        PartitionCostModel model(tl.gen.loop(), tl.va, machine);
        PartitionCostModel witness(tl.gen.loop(), tl.va, machine);
        for (OpId op : tl.candidates) {
            model.testSwitch(op);
            expectBinsEqual(model.binsRef(), witness.binsRef());
        }
    }
}

TEST(Hotpath, ModuloScheduleUnchangedUnderCheckMode)
{
    Machine machine = paperMachine();
    for (int ops : {8, 24, 48}) {
        Rng rng(0x5C4ED0u + static_cast<uint64_t>(ops));
        GeneratorOptions options;
        options.minOps = ops;
        options.maxOps = ops;
        GeneratedLoop g = generateLoop(rng, options);
        Loop lowered = lowerForScheduling(g.loop(), machine);
        DepGraph graph(g.module.arrays, lowered, machine);

        setCheckIncremental(false);
        ScheduleResult fast = moduloSchedule(lowered, graph, machine);
        setCheckIncremental(true);
        ScheduleResult checked =
            moduloSchedule(lowered, graph, machine);
        setCheckIncremental(false);

        ASSERT_EQ(fast.ok, checked.ok);
        EXPECT_EQ(fast.schedule.ii, checked.schedule.ii);
        EXPECT_EQ(fast.schedule.time, checked.schedule.time);
        EXPECT_EQ(fast.attempts, checked.attempts);
        EXPECT_EQ(fast.backtracks, checked.backtracks);
        EXPECT_EQ(fast.placements, checked.placements);
        EXPECT_EQ(fast.readyPushes, checked.readyPushes);
        EXPECT_EQ(fast.maskHits, checked.maskHits);
    }
}

TEST(Hotpath, PartitionerIsDeterministicUnderCheckMode)
{
    Machine machine = paperMachine();
    TestLoop tl(0xDE7E12u, 28, machine);
    setCheckIncremental(false);
    PartitionResult fast = partitionOps(tl.gen.loop(), tl.va, machine);
    setCheckIncremental(true);
    PartitionResult checked =
        partitionOps(tl.gen.loop(), tl.va, machine);
    setCheckIncremental(false);
    EXPECT_EQ(fast.vectorize, checked.vectorize);
    EXPECT_EQ(fast.bestCost, checked.bestCost);
    EXPECT_EQ(fast.movesEvaluated, checked.movesEvaluated);
    EXPECT_EQ(fast.movesCommitted, checked.movesCommitted);
}

TEST(Hotpath, SteadyStateMovesAllocateNothing)
{
    Machine machine = paperMachine();
    TestLoop tl(0xA110Cu, 24, machine);
    ASSERT_FALSE(tl.candidates.empty());
    setCheckIncremental(false);
    PartitionCostModel model(tl.gen.loop(), tl.va, machine);

    // One full sequence: probe every candidate, then commit each once.
    // Running it twice returns every op to its starting side, so the
    // measured pass retraces the warm pass exactly — every scratch
    // vector, ledger and histogram has already reached its high-water
    // capacity.
    auto sequence = [&] {
        for (OpId commit_op : tl.candidates) {
            for (OpId op : tl.candidates)
                model.testSwitch(op);
            model.commitSwitch(commit_op);
        }
    };
    sequence();
    sequence();

    uint64_t before = countedAllocations();
    sequence();
    sequence();
    uint64_t after = countedAllocations();
    EXPECT_EQ(before, after)
        << "testSwitch/commitSwitch allocated in steady state";
}

// ----------------------------------------------------------------- RecMII

/*
 * The RecMII search computeRecMii replaced, kept verbatim as its
 * reference: binary search on the II over [1, 1 + the sum of every
 * positive latency], each step a Floyd-Warshall longest-path closure
 * over the whole graph.
 */

bool
referenceAdmits(const DepGraph &graph, int64_t ii)
{
    constexpr int64_t ninf = INT64_MIN / 4;
    size_t n = static_cast<size_t>(graph.numOps());
    if (n == 0)
        return true;

    std::vector<std::vector<int64_t>> d(n,
                                        std::vector<int64_t>(n, ninf));
    for (const DepEdge &e : graph.edges()) {
        int64_t w = e.latency - ii * e.distance;
        auto &cell = d[static_cast<size_t>(e.src)]
                      [static_cast<size_t>(e.dst)];
        cell = std::max(cell, w);
    }
    for (size_t via = 0; via < n; ++via) {
        for (size_t i = 0; i < n; ++i) {
            if (d[i][via] == ninf)
                continue;
            for (size_t j = 0; j < n; ++j) {
                if (d[via][j] == ninf)
                    continue;
                int64_t cand = d[i][via] + d[via][j];
                // Clamp so repeated positive cycles cannot overflow.
                cand = std::min(cand, INT64_MAX / 8);
                if (cand > d[i][j])
                    d[i][j] = cand;
            }
        }
    }
    for (size_t i = 0; i < n; ++i) {
        if (d[i][i] > 0)
            return false;
    }
    return true;
}

int64_t
referenceRecMii(const DepGraph &graph)
{
    int64_t hi = 1;
    bool any_cycle_possible = false;
    for (const DepEdge &e : graph.edges()) {
        hi += std::max<int64_t>(e.latency, 0);
        if (e.distance > 0)
            any_cycle_possible = true;
    }
    if (!any_cycle_possible)
        return 1;

    SV_ASSERT(referenceAdmits(graph, hi),
              "RecMII upper bound %lld infeasible",
              static_cast<long long>(hi));

    int64_t lo = 1;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (referenceAdmits(graph, mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/** The four stock machines. */
std::vector<Machine>
stockMachines()
{
    return {paperMachine(), directMoveMachine(), wideMachine(),
            embeddedMachine()};
}

/**
 * Lower `loop` for `machine`, then expect computeRecMii to equal the
 * reference and recurrencesAdmit to agree with it at RecMII - 1,
 * RecMII and RecMII + 1.
 */
void
expectRecMiiMatchesReference(const ArrayTable &arrays, const Loop &loop,
                             const Machine &machine,
                             const std::string &what)
{
    Loop lowered = lowerForScheduling(loop, machine);
    DepGraph graph(arrays, lowered, machine);
    int64_t want = referenceRecMii(graph);
    ASSERT_EQ(computeRecMii(graph), want) << what;
    for (int64_t ii = want - 1; ii <= want + 1; ++ii) {
        EXPECT_EQ(recurrencesAdmit(graph, ii),
                  referenceAdmits(graph, ii))
            << what << " at II " << ii;
    }
}

/** The check above on `loop` in source, unrolled and Selective-
 *  transformed form. */
void
expectFormsMatchReference(const ArrayTable &arrays, const Loop &loop,
                          const Machine &machine,
                          const std::string &what)
{
    expectRecMiiMatchesReference(arrays, loop, machine,
                                 what + " source");
    expectRecMiiMatchesReference(arrays,
                                 unrollLoop(loop, arrays, machine),
                                 machine, what + " unrolled");
    DepGraph graph(arrays, loop, machine);
    VectAnalysis va = analyzeVectorizable(loop, graph, machine);
    PartitionResult part = partitionOps(loop, va, machine);
    expectRecMiiMatchesReference(
        arrays,
        transformLoop(loop, arrays, va, part.vectorize, machine),
        machine, what + " selective");
}

TEST(Hotpath, RecMiiMatchesReferenceOnKernelsAndSuites)
{
    for (const Machine &machine : stockMachines()) {
        for (const std::string &file : kernelFiles()) {
            Module module = parseLirOrDie(readKernel(file));
            for (const Loop &loop : module.loops) {
                expectFormsMatchReference(module.arrays, loop, machine,
                                          machine.name + " " + file);
            }
        }
        for (const Suite &suite : allSuites()) {
            for (const WorkloadLoop &wl : suite.loops) {
                const Loop &loop = suite.loopOf(wl);
                expectFormsMatchReference(
                    suite.module.arrays, loop, machine,
                    machine.name + " " + suite.name + "/" + loop.name);
            }
        }
    }
}

TEST(Hotpath, RecMiiMatchesReferenceOnGeneratedLoops)
{
    std::vector<Machine> machines = stockMachines();
    GeneratorOptions options;
    options.minOps = 6;
    options.maxOps = 96;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(0x4EC0u + seed * 7919u);
        GeneratedLoop gen = generateLoop(rng, options);
        const Machine &machine = machines[seed % machines.size()];
        expectFormsMatchReference(
            gen.module.arrays, gen.loop(), machine,
            machine.name + " seed " + std::to_string(seed));
    }
}

} // anonymous namespace
