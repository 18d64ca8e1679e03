/**
 * @file
 * Unit tests for dependence graph construction, SCCs, vectorizability
 * marking and RecMII.
 */

#include <gtest/gtest.h>

#include "analysis/depgraph.hh"
#include "analysis/recmii.hh"
#include "analysis/scc.hh"
#include "analysis/vectorizable.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "support/stats.hh"

namespace selvec
{
namespace
{

Module
parse(const char *text)
{
    ParseResult pr = parseLir(text);
    EXPECT_TRUE(pr.ok) << pr.error;
    return std::move(pr.module);
}

const char *kDot = R"(
array X f64 256
array Y f64 256
loop dot {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        y = load Y[i]
        t = fmul x y
        s1 = fadd s t
    }
    liveout s1
}
)";

// ------------------------------------------------------------ depgraph

TEST(DepGraphTest, DotProductEdges)
{
    Module m = parse(kDot);
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);

    // Flow: x->t, y->t, t->s1, plus carried s1->s1 (distance 1).
    int reg_flow = 0, carried = 0, mem = 0;
    for (const DepEdge &e : g.edges()) {
        switch (e.kind) {
          case DepKind::RegFlow:    ++reg_flow; break;
          case DepKind::RegCarried: ++carried; break;
          case DepKind::Mem:        ++mem; break;
        }
    }
    EXPECT_EQ(reg_flow, 3);
    EXPECT_EQ(carried, 1);
    EXPECT_EQ(mem, 0);

    // The carried edge is the self edge on the add with distance 1
    // and FP-add latency.
    for (const DepEdge &e : g.edges()) {
        if (e.kind == DepKind::RegCarried) {
            EXPECT_EQ(e.src, 3);
            EXPECT_EQ(e.dst, 3);
            EXPECT_EQ(e.distance, 1);
            EXPECT_EQ(e.latency, mach.latency(Opcode::FAdd));
        }
    }
}

TEST(DepGraphTest, MemoryFlowAndAnti)
{
    // load a[i]; store a[i]; load a[i+1] (reads next iteration's
    // stored element one iteration early - anti dependence).
    Module m = parse(R"(
array A f64 256
loop t {
    body {
        x = load A[i]
        y = load A[i + 1]
        s = fadd x y
        store A[i] = s
    }
}
)");
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);

    bool load0_store = false;    // same-iteration anti, distance 0
    bool load1_store = false;    // cross-iteration anti, distance 1
    bool store_load = false;     // flow back, should NOT exist forward
    for (const DepEdge &e : g.edges()) {
        if (e.kind != DepKind::Mem)
            continue;
        if (e.src == 0 && e.dst == 3 && e.distance == 0)
            load0_store = true;
        if (e.src == 1 && e.dst == 3 && e.distance == 1)
            load1_store = true;
        if (e.src == 3 && e.dst == 0)
            store_load = true;
    }
    EXPECT_TRUE(load0_store);
    EXPECT_TRUE(load1_store);
    EXPECT_FALSE(store_load);
}

TEST(DepGraphTest, UnknownDepsSerialize)
{
    Module m = parse(R"(
array A f64 1024
loop t {
    body {
        x = load A[i]
        y = fneg x
        store A[2i] = y
    }
}
)");
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);
    EXPECT_TRUE(g.hasUnknownMemDeps());
}

TEST(DepGraphTest, DistinctArraysNeverAlias)
{
    Module m = parse(R"(
array A f64 256
array B f64 256
loop t {
    body {
        x = load A[i]
        store B[i] = x
    }
}
)");
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);
    for (const DepEdge &e : g.edges())
        EXPECT_NE(e.kind, DepKind::Mem);
}

// ----------------------------------------------------------------- scc

TEST(Scc, ChainHasSingletons)
{
    SccInfo info = computeSccs(3, {{0, 1}, {1, 2}});
    EXPECT_EQ(info.numSccs(), 3);
    for (bool c : info.cyclic)
        EXPECT_FALSE(c);
    // Topological: 0's component before 1's before 2's.
    EXPECT_EQ(info.topoOrder.size(), 3u);
    std::vector<int> pos(3);
    for (int i = 0; i < 3; ++i)
        pos[static_cast<size_t>(info.topoOrder[static_cast<size_t>(
            i)])] = i;
    EXPECT_LT(pos[static_cast<size_t>(info.sccOf[0])],
              pos[static_cast<size_t>(info.sccOf[1])]);
    EXPECT_LT(pos[static_cast<size_t>(info.sccOf[1])],
              pos[static_cast<size_t>(info.sccOf[2])]);
}

TEST(Scc, CycleCollapses)
{
    SccInfo info = computeSccs(4, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
    EXPECT_EQ(info.numSccs(), 3);
    EXPECT_EQ(info.sccOf[1], info.sccOf[2]);
    EXPECT_TRUE(info.cyclic[static_cast<size_t>(info.sccOf[1])]);
    EXPECT_FALSE(info.cyclic[static_cast<size_t>(info.sccOf[0])]);
}

TEST(Scc, SelfEdgeIsCyclic)
{
    SccInfo info = computeSccs(2, {{0, 0}, {0, 1}});
    EXPECT_TRUE(info.cyclic[static_cast<size_t>(info.sccOf[0])]);
    EXPECT_FALSE(info.cyclic[static_cast<size_t>(info.sccOf[1])]);
}

TEST(Scc, EmptyGraph)
{
    SccInfo info = computeSccs(0, {});
    EXPECT_EQ(info.numSccs(), 0);
}

// -------------------------------------------------------- vectorizable

TEST(Vectorizable, DotProductMarks)
{
    Module m = parse(kDot);
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);
    VectAnalysis va = analyzeVectorizable(m.loops[0], g, mach);
    EXPECT_TRUE(va.vectorizable[0]);    // load x
    EXPECT_TRUE(va.vectorizable[1]);    // load y
    EXPECT_TRUE(va.vectorizable[2]);    // fmul
    EXPECT_FALSE(va.vectorizable[3]);   // reduction add
    EXPECT_TRUE(va.anyVectorizable);
    EXPECT_EQ(va.countVectorizable(), 3);
}

TEST(Vectorizable, StridedMemoryStaysScalar)
{
    Module m = parse(R"(
array A f64 1024
array B f64 1024
loop t {
    body {
        x = load A[2i]
        y = fneg x
        store B[i] = y
    }
}
)");
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);
    VectAnalysis va = analyzeVectorizable(m.loops[0], g, mach);
    EXPECT_FALSE(va.vectorizable[0]);   // strided load
    EXPECT_TRUE(va.vectorizable[1]);    // compute
    EXPECT_TRUE(va.vectorizable[2]);    // unit-stride store
}

TEST(Vectorizable, DistanceAtLeastVlCycleAllowed)
{
    // a[i+4] = f(a[i]): carried memory cycle at distance 4 >= VL=2,
    // the paper's explicit example of a vectorizable recurrence. With
    // hardware-supported (aligned) vector memory everything
    // vectorizes; under the misaligned policy the store's deferred
    // partial chunks sit too close to the dependent load and the
    // store conservatively stays scalar.
    Module m = parse(R"(
array A f64 256
loop t {
    body {
        x = load A[i]
        y = fneg x
        store A[i + 4] = y
    }
}
)");
    Machine aligned = paperMachine();
    aligned.alignment = AlignPolicy::AssumeAligned;
    DepGraph g(m.arrays, m.loops[0], aligned);
    VectAnalysis va = analyzeVectorizable(m.loops[0], g, aligned);
    EXPECT_TRUE(va.vectorizable[0]);
    EXPECT_TRUE(va.vectorizable[1]);
    EXPECT_TRUE(va.vectorizable[2]);

    int scc = va.sccs.sccOf[0];
    EXPECT_TRUE(va.sccs.cyclic[static_cast<size_t>(scc)]);
    EXPECT_EQ(va.minCycleDistance[static_cast<size_t>(scc)], 4);

    Machine mis = paperMachine();
    VectAnalysis vm = analyzeVectorizable(m.loops[0], g, mis);
    EXPECT_TRUE(vm.vectorizable[0]);
    EXPECT_TRUE(vm.vectorizable[1]);
    EXPECT_FALSE(vm.vectorizable[2]);
    EXPECT_TRUE(vm.memEntangled[2]);
}

TEST(Vectorizable, DistanceOneCycleForbidden)
{
    Module m = parse(R"(
array A f64 256
loop t {
    body {
        x = load A[i]
        y = fneg x
        store A[i + 1] = y
    }
}
)");
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);
    VectAnalysis va = analyzeVectorizable(m.loops[0], g, mach);
    EXPECT_FALSE(va.vectorizable[0]);
    EXPECT_FALSE(va.vectorizable[1]);
    EXPECT_FALSE(va.vectorizable[2]);
}

TEST(Vectorizable, NeighborGuardDropsIsolatedOps)
{
    // The strided load's consumer chain is scalar; a lone
    // vectorizable store of a live-in has no vectorizable dataflow
    // neighbor and is dropped by the guard.
    Module m = parse(R"(
array A f64 1024
array B f64 1024
loop t {
    livein c f64
    body {
        x = load A[2i]
        y = fneg x
        store A[2i + 1] = y
        store B[i] = c
    }
}
)");
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);

    VectOptions guard;
    guard.neighborGuard = true;
    VectAnalysis va = analyzeVectorizable(m.loops[0], g, mach, guard);
    // fneg's only neighbors are the strided (scalar) accesses.
    EXPECT_FALSE(va.vectorizable[1]);
    // The isolated unit-stride store is dropped too.
    EXPECT_FALSE(va.vectorizable[3]);

    VectAnalysis no_guard = analyzeVectorizable(m.loops[0], g, mach);
    EXPECT_TRUE(no_guard.vectorizable[1]);
    EXPECT_TRUE(no_guard.vectorizable[3]);
}

TEST(Vectorizable, ReductionRecognitionOptIn)
{
    Module m = parse(kDot);
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);

    VectOptions opts;
    opts.recognizeReductions = true;
    VectAnalysis va = analyzeVectorizable(m.loops[0], g, mach, opts);
    EXPECT_TRUE(va.vectorizable[3]);
    EXPECT_TRUE(va.reduction[3]);

    VectAnalysis off = analyzeVectorizable(m.loops[0], g, mach);
    EXPECT_FALSE(off.vectorizable[3]);
}

// -------------------------------------------------------------- recmii

TEST(RecMii, AcyclicIsOne)
{
    Module m = parse(R"(
array A f64 256
array B f64 256
loop t {
    body {
        x = load A[i]
        y = fmul x x
        store B[i] = y
    }
}
)");
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);
    EXPECT_EQ(computeRecMii(g), 1);
}

TEST(RecMii, ReductionChainLatency)
{
    Module m = parse(kDot);
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);
    // One FP add (latency 4) around a distance-1 cycle.
    EXPECT_EQ(computeRecMii(g), 4);
}

TEST(RecMii, LongDistanceDividesLatency)
{
    Module m = parse(R"(
array A f64 256
loop t {
    body {
        x = load A[i]
        y = fneg x
        store A[i + 4] = y
    }
}
)");
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);
    // Cycle latency: load 3 + fneg 4 + store edge 1 = 8 over
    // distance 4 -> ceil(8/4) = 2.
    EXPECT_EQ(computeRecMii(g), 2);
}

TEST(RecMii, AdmitsMonotone)
{
    Module m = parse(kDot);
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);
    int64_t rec = computeRecMii(g);
    EXPECT_FALSE(recurrencesAdmit(g, rec - 1));
    EXPECT_TRUE(recurrencesAdmit(g, rec));
    EXPECT_TRUE(recurrencesAdmit(g, rec + 5));
}

TEST(RecMii, BindingRecurrenceNeedNotComeFirst)
{
    // Two independent self recurrences: fadd (latency 4) and fdiv
    // (latency 32), in either order. The larger one binds, also when
    // it is not the first component searched.
    const char *fadd_first = R"(
array X f64 256
loop t {
    livein a0 f64
    livein b0 f64
    carried a f64 init a0 update a1
    carried b f64 init b0 update b1
    body {
        x = load X[i]
        a1 = fadd a x
        b1 = fdiv b x
    }
    liveout a1
    liveout b1
}
)";
    const char *fdiv_first = R"(
array X f64 256
loop t {
    livein a0 f64
    livein b0 f64
    carried a f64 init a0 update a1
    carried b f64 init b0 update b1
    body {
        x = load X[i]
        b1 = fdiv b x
        a1 = fadd a x
    }
    liveout a1
    liveout b1
}
)";
    Machine mach = paperMachine();
    std::vector<int> first_searched;
    for (const char *text : {fadd_first, fdiv_first}) {
        Module m = parse(text);
        DepGraph g(m.arrays, m.loops[0], mach);
        // computeRecMii searches the cyclic components in findSccs
        // order.
        std::vector<std::pair<int, int>> pairs;
        for (const DepEdge &e : g.edges())
            pairs.emplace_back(e.src, e.dst);
        SccInfo info = findSccs(g.numOps(), pairs);
        for (int c = 0; c < info.numSccs(); ++c) {
            if (info.cyclic[static_cast<size_t>(c)]) {
                first_searched.push_back(
                    info.members[static_cast<size_t>(c)].front());
                break;
            }
        }
        EXPECT_EQ(computeRecMii(g), 32);
        EXPECT_FALSE(recurrencesAdmit(g, 31));
        EXPECT_TRUE(recurrencesAdmit(g, 32));
    }
    // Op 1 is the fadd in the first loop and the fdiv in the second.
    EXPECT_EQ(first_searched, (std::vector<int>{1, 1}));
}

TEST(RecMii, NonIntegerRatioRoundsUp)
{
    Module m = parse(R"(
array A f64 256
loop t {
    body {
        x = load A[i]
        y = fneg x
        store A[i + 3] = y
    }
}
)");
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);
    // load 3 + fneg 4 + store edge 1 = 8 over distance 3:
    // ceil(8/3) = 3.
    EXPECT_EQ(computeRecMii(g), 3);
    EXPECT_FALSE(recurrencesAdmit(g, 2));
    EXPECT_TRUE(recurrencesAdmit(g, 3));
}

TEST(RecMii, UnknownMemoryDependenceSerializes)
{
    // A[2i] against A[i] has no static distance: the pair is
    // serialized by a latency-1 edge at distance 0 and one back at
    // distance 1, a cycle of latency 2 over distance 1.
    Module m = parse(R"(
array A f64 1024
array B f64 1024
loop t {
    livein c f64
    body {
        x = load A[2i]
        store A[i] = c
        y = fneg x
        store B[i] = y
    }
}
)");
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);
    int serializing = 0;
    for (const DepEdge &e : g.edges()) {
        if (e.serializing) {
            ++serializing;
            EXPECT_EQ(e.latency, 1);
        }
    }
    EXPECT_EQ(serializing, 2);
    EXPECT_EQ(computeRecMii(g), 2);
    EXPECT_FALSE(recurrencesAdmit(g, 1));
    EXPECT_TRUE(recurrencesAdmit(g, 2));
}

TEST(RecMii, RecordsNoStats)
{
    Module m = parse(kDot);
    Machine mach = paperMachine();
    DepGraph g(m.arrays, m.loops[0], mach);

    StatsRegistry quiet;
    {
        ScopedStatsSink sink(quiet);
        EXPECT_EQ(computeRecMii(g), 4);
        EXPECT_TRUE(recurrencesAdmit(g, 4));
    }
    EXPECT_TRUE(quiet.snapshot().empty());

    // The SCC pass it runs is computeSccs minus the stats, which
    // computeSccs itself still records.
    StatsRegistry counted;
    {
        ScopedStatsSink sink(counted);
        computeSccs(3, {{0, 1}, {1, 0}, {1, 2}});
    }
    std::vector<std::string> keys;
    for (const StatEntry &entry : counted.snapshot())
        keys.push_back(entry.key);
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "scc.components", "scc.maxComponent",
                        "scc.runs"}));
    EXPECT_EQ(counted.value("scc.maxComponent"), 2);
}

} // anonymous namespace
} // namespace selvec
