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
 *    reference around each RecMII;
 *  - the lazy MemoryImage reads, copies and diffs exactly like the
 *    eager image it replaced (kept here as ReferenceImage, with
 *    referenceFillPattern and referenceDiff): every cell, guards
 *    included, of the suite, kernel, generated and block-edge tables,
 *    and the first mismatch with its message.
 *
 * This binary links the counting allocator (counting_alloc.cc), which
 * replaces the global operator new, so these tests live apart from
 * selvec_tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
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
#include "sim/memimage.hh"
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

// ----------------------------------------------------------- MemoryImage

constexpr int64_t kGuard = MemoryImage::kGuard;

/** The eager memory image MemoryImage replaced: every cell stored up
 *  front, guards zero. */
struct ReferenceImage
{
    const ArrayTable &table;
    std::vector<std::vector<uint64_t>> data;

    explicit ReferenceImage(const ArrayTable &arrays) : table(arrays)
    {
        data.resize(static_cast<size_t>(arrays.size()));
        for (ArrayId a = 0; a < arrays.size(); ++a) {
            data[static_cast<size_t>(a)].assign(
                static_cast<size_t>(arrays[a].size + 2 * kGuard), 0);
        }
    }

    uint64_t
    cell(ArrayId arr, int64_t index) const
    {
        return data[static_cast<size_t>(arr)]
                   [static_cast<size_t>(index + kGuard)];
    }

    void
    storeF(ArrayId arr, int64_t index, double v)
    {
        data[static_cast<size_t>(arr)]
            [static_cast<size_t>(index + kGuard)] =
                std::bit_cast<uint64_t>(v);
    }

    void
    storeI(ArrayId arr, int64_t index, int64_t v)
    {
        data[static_cast<size_t>(arr)]
            [static_cast<size_t>(index + kGuard)] =
                static_cast<uint64_t>(v);
    }
};

/*
 * The eager fill and the per-element diff MemoryImage replaced, kept
 * verbatim as its reference.
 */

void
referenceFillPattern(ReferenceImage &image, uint64_t seed)
{
    Rng rng(seed);
    for (ArrayId a = 0; a < image.table.size(); ++a) {
        const ArrayInfo &info = image.table[a];
        for (int64_t i = 0; i < info.size; ++i) {
            if (info.elemType == Type::F64) {
                // Small magnitudes keep every technique's arithmetic
                // exactly representable enough for bitwise comparison.
                double v = static_cast<double>(rng.range(-1024, 1024)) /
                           32.0;
                image.storeF(a, i, v);
            } else {
                image.storeI(a, i, rng.range(-4096, 4096));
            }
        }
    }
}

/** One differing element, each side printed in the array's type. */
std::string
describeMismatch(const ArrayInfo &info, int64_t i, uint64_t lhs,
                 uint64_t rhs)
{
    if (info.elemType == Type::F64) {
        return strfmt("%s[%lld]: %.17g vs %.17g", info.name.c_str(),
                      static_cast<long long>(i),
                      std::bit_cast<double>(lhs),
                      std::bit_cast<double>(rhs));
    }
    return strfmt("%s[%lld]: %lld vs %lld", info.name.c_str(),
                  static_cast<long long>(i), static_cast<long long>(lhs),
                  static_cast<long long>(rhs));
}

std::string
referenceDiff(const ReferenceImage &image, const ReferenceImage &other)
{
    SV_ASSERT(image.table.size() == other.table.size(),
              "comparing images over different array tables");
    for (ArrayId a = 0; a < image.table.size(); ++a) {
        const ArrayInfo &info = image.table[a];
        if (info.synthesized)
            continue;
        for (int64_t i = 0; i < info.size; ++i) {
            uint64_t lhs = image.cell(a, i);
            uint64_t rhs = other.cell(a, i);
            if (lhs != rhs)
                return describeMismatch(info, i, lhs, rhs);
        }
    }
    return "";
}

/** One cell of `mem`, read through the load of its array's type. */
uint64_t
loadBits(const MemoryImage &mem, ArrayId arr, int64_t index)
{
    if (mem.arrays()[arr].elemType == Type::F64)
        return std::bit_cast<uint64_t>(mem.loadF(arr, index));
    return static_cast<uint64_t>(mem.loadI(arr, index));
}

/** Every cell of every array, guards included, in an order shuffled
 *  by `seed`. */
std::vector<std::pair<ArrayId, int64_t>>
shuffledCells(const ArrayTable &arrays, uint64_t seed)
{
    std::vector<std::pair<ArrayId, int64_t>> cells;
    for (ArrayId a = 0; a < arrays.size(); ++a) {
        for (int64_t i = -kGuard; i < arrays[a].size + kGuard; ++i)
            cells.emplace_back(a, i);
    }
    Rng rng(seed);
    for (size_t i = cells.size(); i > 1; --i) {
        size_t j = static_cast<size_t>(
            rng.range(0, static_cast<int64_t>(i) - 1));
        std::swap(cells[i - 1], cells[j]);
    }
    return cells;
}

/** Expect every cell of `mem` to read as `want` holds it, visited in
 *  shuffled order so blocks fill out of order. */
void
expectReadsMatch(const MemoryImage &mem, const ReferenceImage &want,
                 uint64_t order, const std::string &what)
{
    for (auto [a, i] : shuffledCells(want.table, order)) {
        ASSERT_EQ(loadBits(mem, a, i), want.cell(a, i))
            << what << ": " << want.table[a].name << "[" << i << "]";
    }
}

/** F64 and I64 arrays of every size around a block edge, plus a
 *  synthesized one. */
ArrayTable
blockEdgeTable()
{
    ArrayTable arrays;
    for (int64_t size : {0, 1, 191, 192, 193, 255, 256, 257, 1000}) {
        for (Type type : {Type::F64, Type::I64}) {
            ArrayInfo info;
            info.name = strfmt("%s%lld", type == Type::F64 ? "F" : "I",
                               static_cast<long long>(size));
            info.elemType = type;
            info.size = size;
            arrays.add(info);
        }
    }
    ArrayInfo tmp;
    tmp.name = "tmp";
    tmp.size = 300;
    tmp.synthesized = true;
    arrays.add(tmp);
    return arrays;
}

/** Fill both images of a table from `seed`, then expect the lazy one
 *  to read like the eager one: fresh, after a copy taken halfway
 *  through, and in that copy. */
void
expectFillMatchesReference(const ArrayTable &arrays, uint64_t seed,
                           const std::string &what)
{
    ReferenceImage want(arrays);
    referenceFillPattern(want, seed);
    MemoryImage mem(arrays);
    mem.fillPattern(seed);
    std::vector<std::pair<ArrayId, int64_t>> cells =
        shuffledCells(arrays, seed + 1);
    for (size_t k = 0; k < cells.size() / 2; ++k) {
        auto [a, i] = cells[k];
        ASSERT_EQ(loadBits(mem, a, i), want.cell(a, i))
            << what << ": " << arrays[a].name << "[" << i << "]";
    }
    MemoryImage copy(mem);
    expectReadsMatch(copy, want, seed + 2, what + " copy");
    expectReadsMatch(mem, want, seed + 3, what);
}

TEST(Hotpath, MemoryImageMatchesEagerFill)
{
    ArrayTable edges = blockEdgeTable();
    for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{0xC0FFEE}})
        expectFillMatchesReference(edges, seed, "block edges");
    // Before any fillPattern every cell reads zero.
    expectReadsMatch(MemoryImage(edges), ReferenceImage(edges), 7,
                     "unfilled");

    for (const Suite &suite : allSuites()) {
        expectFillMatchesReference(suite.module.arrays, 0xC0FFEE ^ 3,
                                   suite.name);
    }
    for (const std::string &file : kernelFiles()) {
        Module module = parseLirOrDie(readKernel(file));
        expectFillMatchesReference(module.arrays, 17, file);
    }
    for (uint64_t seed = 0; seed < 20; ++seed) {
        Rng rng(0x3E3u + seed * 7919u);
        GeneratedLoop gen = generateLoop(rng);
        expectFillMatchesReference(gen.module.arrays, seed,
                                   "generated " + std::to_string(seed));
    }
}

/** One memory image under both implementations, kept in step. */
struct TwinImage
{
    MemoryImage lazy;
    ReferenceImage eager;

    explicit TwinImage(const ArrayTable &arrays)
        : lazy(arrays), eager(arrays)
    {}

    void
    fill(uint64_t seed)
    {
        lazy.fillPattern(seed);
        referenceFillPattern(eager, seed);
    }

    /** Store `bits` plus the cell's current value, so a zero `bits`
     *  stores what is there already. */
    void
    bump(ArrayId arr, int64_t index, uint64_t bits)
    {
        uint64_t v = eager.cell(arr, index) + bits;
        lazy.storeI(arr, index, static_cast<int64_t>(v));
        eager.storeI(arr, index, static_cast<int64_t>(v));
    }

    /** Read a cell through the lazy image, filling its block. */
    void
    touch(ArrayId arr, int64_t index) const
    {
        EXPECT_EQ(loadBits(lazy, arr, index), eager.cell(arr, index));
    }
};

/** Expect both diff directions to give the reference's answer, and
 *  return the lazy one. */
std::string
expectDiffMatches(const TwinImage &lhs, const TwinImage &rhs,
                  const std::string &what)
{
    std::string got = lhs.lazy.diff(rhs.lazy);
    EXPECT_EQ(got, referenceDiff(lhs.eager, rhs.eager)) << what;
    EXPECT_EQ(rhs.lazy.diff(lhs.lazy),
              referenceDiff(rhs.eager, lhs.eager))
        << what << " (reversed)";
    return got;
}

TEST(Hotpath, MemoryImageDiffMatchesEagerDiff)
{
    ArrayTable edges = blockEdgeTable();
    Suite nasa7 = allSuites().front();
    for (const ArrayTable *arrays : {&edges, &nasa7.module.arrays}) {
        TwinImage base(*arrays);
        base.fill(0xC0FFEE);
        EXPECT_EQ(expectDiffMatches(base, TwinImage(base), "copy"), "");

        // One planted mismatch per case: the first cell, both sides
        // of each block edge, and the last (partial) block. The copy
        // fills the mismatch's block alone unless `both` touches it
        // on the base side too.
        for (ArrayId a = 0; a < arrays->size(); ++a) {
            int64_t size = (*arrays)[a].size;
            for (int64_t i : {int64_t{0}, int64_t{191}, int64_t{192},
                              int64_t{447}, int64_t{448}, size - 1}) {
                if (i < 0 || i >= size)
                    continue;
                for (bool both : {false, true}) {
                    TwinImage lhs(base), rhs(base);
                    if (both) {
                        lhs.touch(a, i);
                    }
                    rhs.bump(a, i, 1);
                    std::string what =
                        strfmt("%s[%lld]%s", (*arrays)[a].name.c_str(),
                               static_cast<long long>(i),
                               both ? " both filled" : "");
                    std::string got = expectDiffMatches(lhs, rhs, what);
                    if (!(*arrays)[a].synthesized) {
                        EXPECT_NE(got, "") << what;
                    }
                }
            }
        }

        // The first mismatch wins, though a later one is in a block
        // filled earlier and on both sides.
        auto plain = [&](ArrayId a) {
            return (*arrays)[a].size > 0 && !(*arrays)[a].synthesized;
        };
        ArrayId first = 0, last = arrays->size() - 1;
        while (!plain(first))
            ++first;
        while (!plain(last))
            --last;
        TwinImage lhs(base), rhs(base);
        rhs.bump(last, (*arrays)[last].size - 1, 5);
        lhs.touch(last, (*arrays)[last].size - 1);
        rhs.bump(first, 0, 3);
        EXPECT_NE(expectDiffMatches(lhs, rhs, "two mismatches"), "");

        // A store of the value already there is no mismatch.
        TwinImage same(base);
        same.bump(last, 0, 0);
        EXPECT_EQ(expectDiffMatches(base, same, "equal store"), "");

        // A store before the copy travels with it.
        TwinImage stored(base);
        stored.bump(first, 0, 9);
        TwinImage copy(stored);
        EXPECT_EQ(expectDiffMatches(stored, copy, "stored copy"), "");
        EXPECT_NE(expectDiffMatches(base, copy, "stored copy vs base"),
                  "");
        copy.bump(last, 0, 2);
        EXPECT_NE(expectDiffMatches(stored, copy, "write to a copy"), "");

        // Different seeds, and filled against unfilled images.
        TwinImage other(*arrays), blank(*arrays), blank2(*arrays);
        other.fill(0xC0FFEF);
        other.touch(last, 0);
        EXPECT_NE(expectDiffMatches(base, other, "different seeds"), "");
        EXPECT_NE(expectDiffMatches(base, blank, "filled vs unfilled"),
                  "");
        blank2.bump(first, 0, 4);
        EXPECT_NE(expectDiffMatches(blank, blank2, "unfilled stored"),
                  "");
        EXPECT_EQ(expectDiffMatches(blank, TwinImage(*arrays),
                                    "both unfilled"),
                  "");

        // fillPattern after stores restores the pattern everywhere.
        TwinImage refilled(*arrays);
        refilled.fill(0xC0FFEF);
        refilled.bump(first, 0, 6);
        refilled.bump(last, (*arrays)[last].size - 1, 6);
        refilled.fill(0xC0FFEE);
        EXPECT_EQ(expectDiffMatches(base, refilled, "refilled"), "");
        refilled.fill(0xC0FFEF);
        EXPECT_NE(expectDiffMatches(base, refilled, "refilled other"),
                  "");
    }
}

} // anonymous namespace
