/**
 * @file
 * Tests for early-exit (while-style) loops: the paper's section 6
 * "loops with early exits" extension. Post-tested semantics: an
 * ExitIf with a nonzero condition makes its iteration the loop's
 * last. Software pipelines over-execute speculatively; stores of
 * iterations past the exit are suppressed exactly, and observable
 * state comes from the exiting replica.
 */

#include <gtest/gtest.h>

#include "analysis/depgraph.hh"
#include "core/itersplit.hh"
#include "core/transform.hh"
#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "vectorize/traditional.hh"

namespace selvec
{
namespace
{

const char *kFind = R"(
array A f64 300
array B f64 300
loop find {
    livein limit f64
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load A[i]
        s1 = fadd s x
        xx = fmul x x
        store B[i] = xx
        c = fcmplt limit x
        exitif c
    }
    liveout s1
}
)";

struct Prepared
{
    Module module;
    Machine machine = paperMachine();
    LiveEnv env;

    explicit Prepared(double limit)
    {
        module = parseLirOrDie(kFind);
        env["limit"] = RtVal::scalarF(limit);
        env["s0"] = RtVal::scalarF(0.0);
    }

    const Loop &loop() const { return module.loops.front(); }
};

TEST(EarlyExit, ComparisonSemantics)
{
    Module m = parseLirOrDie(R"(
array A i64 16
loop t {
    livein a i64
    livein b i64
    livein x f64
    livein y f64
    body {
        ci = icmplt a b
        cf = fcmplt x y
        store A[i] = ci
        store A[i + 8] = cf
    }
}
)");
    Machine machine = paperMachine();
    MemoryImage mem(m.arrays);
    LiveEnv env;
    env["a"] = RtVal::scalarI(3);
    env["b"] = RtVal::scalarI(5);
    env["x"] = RtVal::scalarF(2.0);
    env["y"] = RtVal::scalarF(-1.0);
    ASSERT_TRUE(
        tryExecuteLoop(m.arrays, m.loops[0], machine, mem, env, 1).ok());
    EXPECT_EQ(mem.loadI(0, 0), 1);
    EXPECT_EQ(mem.loadI(0, 8), 0);
}

TEST(EarlyExit, ReferenceStopsAtTheExit)
{
    Prepared p(20.0);
    MemoryImage mem(p.module.arrays);
    mem.fillPattern(71);
    // Plant a trigger at a known index.
    mem.storeF(0, 10, 25.0);
    for (int i = 0; i < 10; ++i)
        mem.storeF(0, i, 1.0);

    Expected<RunOutput> run = tryExecuteLoop(
        p.module.arrays, p.loop(), p.machine, mem, p.env, 100);
    ASSERT_TRUE(run.ok()) << run.status().str();
    const RunOutput &out = run.value();
    EXPECT_TRUE(out.exited);
    EXPECT_EQ(out.exitOrig, 10);
    // Stores up to and including iteration 10 committed; iteration
    // 11's store suppressed.
    EXPECT_DOUBLE_EQ(mem.loadF(1, 10), 25.0 * 25.0);
    EXPECT_NE(mem.loadF(1, 11), mem.loadF(0, 11) * mem.loadF(0, 11));
    // The sum covers iterations 0..10.
    EXPECT_DOUBLE_EQ(out.liveOuts.at("s1").laneF(0), 10.0 + 25.0);
    EXPECT_DOUBLE_EQ(out.carriedFinal.at("s").laneF(0), 35.0);
}

TEST(EarlyExit, StoresStayScalarUnderVectorization)
{
    Prepared p(1.0);
    DepGraph graph(p.module.arrays, p.loop(), p.machine);
    VectAnalysis va =
        analyzeVectorizable(p.loop(), graph, p.machine);
    for (OpId op = 0; op < p.loop().numOps(); ++op) {
        if (p.loop().op(op).isStore()) {
            EXPECT_FALSE(va.vectorizable[static_cast<size_t>(op)]);
        }
    }
    // The load and the square are still fair game.
    EXPECT_TRUE(va.vectorizable[0]);
    EXPECT_TRUE(va.vectorizable[2]);
}

class ExitTechniques
    : public ::testing::TestWithParam<std::tuple<Technique, int>>
{
};

TEST_P(ExitTechniques, MatchesReferenceAtEveryPhase)
{
    Technique technique = std::get<0>(GetParam());
    int exit_at = std::get<1>(GetParam());

    Prepared p(20.0);
    ArrayTable arrays = p.module.arrays;
    CompiledProgram program =
        compileLoop(p.loop(), arrays, p.machine, technique);

    auto plant = [&](MemoryImage &mem) {
        mem.fillPattern(73);
        for (int i = 0; i < 120; ++i)
            mem.storeF(0, i, 0.5);
        if (exit_at >= 0)
            mem.storeF(0, exit_at, 30.0);
    };

    MemoryImage mem(arrays);
    plant(mem);
    Expected<ExecResult> got = tryRunVerified(
        program, p.loop(), arrays, p.machine, mem, p.env, 100);
    ASSERT_TRUE(got.ok()) << techniqueName(technique) << " exit@"
                          << exit_at << ": " << got.status().str();
    ASSERT_TRUE(got.value().env.count("s1"));
    EXPECT_GT(got.value().cycles, 0);
}

std::string
exitName(const ::testing::TestParamInfo<std::tuple<Technique, int>>
             &info)
{
    int at = std::get<1>(info.param);
    return std::string(techniqueName(std::get<0>(info.param))) +
           (at < 0 ? "_noexit" : "_at" + std::to_string(at));
}

INSTANTIATE_TEST_SUITE_P(
    Phases, ExitTechniques,
    ::testing::Combine(
        ::testing::Values(Technique::ModuloOnly, Technique::Full,
                          Technique::Selective),
        // Even and odd exit points (both replica phases), an exit in
        // the cleanup region, the first iteration, and no exit at all
        // (-1: the loop runs to its bound and the cleanup runs).
        ::testing::Values(-1, 0, 1, 6, 7, 42, 99)),
    exitName);

TEST(EarlyExit, TraditionalDeclinesToDistribute)
{
    Prepared p(1.0);
    DistributedLoops dist = traditionalVectorize(
        p.loop(), p.module.arrays, p.machine, 512);
    EXPECT_FALSE(dist.distributed);
}

TEST(EarlyExit, IterationSplitRefuses)
{
    Prepared p(1.0);
    Machine aligned = paperMachine();
    aligned.alignment = AlignPolicy::AssumeAligned;
    DepGraph graph(p.module.arrays, p.loop(), aligned);
    VectAnalysis va = analyzeVectorizable(p.loop(), graph, aligned);
    IterSplitResult r = iterationSplit(p.loop(), p.module.arrays, va,
                                       aligned, 3);
    EXPECT_FALSE(r.ok);
}

TEST(EarlyExit, SchedulerOrdersStoresAfterExits)
{
    // The control edges force every store at least one exit-latency
    // behind the previous iteration's tests.
    Prepared p(1.0);
    DepGraph graph(p.module.arrays, p.loop(), p.machine);
    bool exit_to_store = false;
    for (const DepEdge &e : graph.edges()) {
        if (p.loop().op(e.src).opcode == Opcode::ExitIf &&
            p.loop().op(e.dst).isStore() && e.distance == 1) {
            exit_to_store = true;
        }
    }
    EXPECT_TRUE(exit_to_store);
}

TEST(EarlyExit, VerifierRejectsVectorStores)
{
    ParseResult pr = parseLir(R"(
array A f64 64
loop t cover 2 {
    livein k i64
    body {
        v = vload A[2i]
        vstore A[2i + 32] = v
        c = icmplt k k
        exitif c
    }
}
)");
    EXPECT_FALSE(pr.ok);
    EXPECT_NE(pr.error.find("early-exit"), std::string::npos);
}

TEST(EarlyExit, LirRoundTripWithLaneTables)
{
    Prepared p(1.0);
    DepGraph graph(p.module.arrays, p.loop(), p.machine);
    VectAnalysis va =
        analyzeVectorizable(p.loop(), graph, p.machine);
    Loop vec = transformLoop(p.loop(), p.module.arrays, va,
                             va.vectorizable, p.machine);
    ASSERT_FALSE(vec.liveOutLanes.empty());
    ASSERT_FALSE(vec.carriedUpdateLanes.empty());

    Module round;
    round.arrays = p.module.arrays;
    round.loops.push_back(vec);
    std::string text = writeLir(round);
    ParseResult pr = parseLir(text);
    ASSERT_TRUE(pr.ok) << pr.error << "\n" << text;
    const Loop &back = pr.module.loops.front();
    EXPECT_EQ(back.liveOutLanes, vec.liveOutLanes);
    EXPECT_EQ(back.carriedUpdateLanes.size(),
              vec.carriedUpdateLanes.size());
    EXPECT_TRUE(back.hasEarlyExit());
}

} // anonymous namespace
} // namespace selvec
