/**
 * @file
 * Tests for the iteration-partitioned vectorization extension (paper
 * section 6: larger scheduling windows, whole iterations assigned to
 * resources, no communication).
 */

#include <gtest/gtest.h>

#include "analysis/depgraph.hh"
#include "core/itersplit.hh"
#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"

namespace selvec
{
namespace
{

const char *kSaxpy = R"(
array X f64 600
array Y f64 600
loop saxpy {
    livein a f64
    body {
        x = load X[i]
        y = load Y[i]
        ax = fmul a x
        s = fadd ax y
        store Y[i] = s
    }
}
)";

struct Ctx
{
    Module module;
    Machine machine;
    VectAnalysis va;

    explicit Ctx(const char *text, Machine m = alignedMachine())
        : machine(std::move(m))
    {
        ParseResult pr = parseLir(text);
        EXPECT_TRUE(pr.ok) << pr.error;
        module = std::move(pr.module);
        DepGraph graph(module.arrays, module.loops[0], machine);
        va = analyzeVectorizable(module.loops[0], graph, machine);
    }

    static Machine
    alignedMachine()
    {
        Machine m = paperMachine();
        m.alignment = AlignPolicy::AssumeAligned;
        return m;
    }

    const Loop &loop() const { return module.loops.front(); }
};

TEST(IterSplit, BuildsWithoutAnyCommunication)
{
    Ctx c(kSaxpy);
    IterSplitResult r =
        iterationSplit(c.loop(), c.module.arrays, c.va, c.machine, 3);
    ASSERT_TRUE(r.ok) << r.reason;
    EXPECT_EQ(r.loop.coverage, 3);
    for (const Operation &op : r.loop.ops) {
        EXPECT_NE(op.opcode, Opcode::XferStoreS);
        EXPECT_NE(op.opcode, Opcode::XferStoreV);
        EXPECT_NE(op.opcode, Opcode::MovSV);
        EXPECT_NE(op.opcode, Opcode::VPack);
    }
    // One vector instance + one scalar replica of each op.
    EXPECT_EQ(r.loop.numOps(), 2 * c.loop().numOps());
    // Vector refs advance by the unroll factor.
    EXPECT_EQ(r.loop.ops[0].ref.scale, 3);
}

TEST(IterSplit, Equivalence)
{
    Ctx c(kSaxpy);
    IterSplitResult r =
        iterationSplit(c.loop(), c.module.arrays, c.va, c.machine, 3);
    ASSERT_TRUE(r.ok) << r.reason;

    LiveEnv env;
    env["a"] = RtVal::scalarF(1.25);
    MemoryImage ref(c.module.arrays), got(c.module.arrays);
    ref.fillPattern(51);
    got.fillPattern(51);
    ASSERT_TRUE(
        tryExecuteLoop(c.module.arrays, c.loop(), c.machine, ref, env, 60)
            .ok());
    ASSERT_TRUE(
        tryExecuteLoop(c.module.arrays, r.loop, c.machine, got, env, 20)
            .ok());
    EXPECT_EQ(got.diff(ref), "");
}

TEST(IterSplit, RefusesMisalignedPolicy)
{
    Ctx c(kSaxpy, paperMachine());
    IterSplitResult r =
        iterationSplit(c.loop(), c.module.arrays, c.va, c.machine, 3);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.reason.find("unaligned"), std::string::npos);
}

TEST(IterSplit, RefusesCarriedState)
{
    Ctx c(R"(
array X f64 600
loop t {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        s1 = fadd s x
    }
    liveout s1
}
)");
    IterSplitResult r =
        iterationSplit(c.loop(), c.module.arrays, c.va, c.machine, 3);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.reason.find("carried"), std::string::npos);
}

TEST(IterSplit, RefusesNonVectorizableOps)
{
    Ctx c(R"(
array X f64 2048
array Y f64 600
loop t {
    body {
        x = load X[3i]
        y = fneg x
        store Y[i] = y
    }
}
)");
    IterSplitResult r =
        iterationSplit(c.loop(), c.module.arrays, c.va, c.machine, 3);
    EXPECT_FALSE(r.ok);
}

TEST(IterSplit, DriverTechniqueWithCleanup)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine machine = Ctx::alignedMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p = compileLoop(m.loops[0], arrays, machine,
                                    Technique::IterationSplit);
    ASSERT_EQ(p.loops.size(), 1u);
    EXPECT_EQ(p.loops[0].coverage, 3);

    LiveEnv env;
    env["a"] = RtVal::scalarF(-0.5);
    // Trip counts exercising the cleanup remainders 0, 1 and 2.
    for (int64_t n : {0, 1, 2, 3, 20, 31, 32, 33}) {
        MemoryImage mem(arrays);
        mem.fillPattern(53);
        Expected<ExecResult> run =
            tryRunVerified(p, m.loops[0], arrays, machine, mem, env, n);
        EXPECT_TRUE(run.ok()) << "n=" << n << ": " << run.status().str();
    }
}

TEST(IterSplit, DriverFallsBackWhenInapplicable)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine machine = paperMachine();   // misaligned: refused
    ArrayTable arrays = m.arrays;
    CompiledProgram p = compileLoop(m.loops[0], arrays, machine,
                                    Technique::IterationSplit);
    EXPECT_EQ(p.loops[0].coverage, machine.vectorLength);

    LiveEnv env;
    env["a"] = RtVal::scalarF(2.0);
    MemoryImage mem(arrays);
    mem.fillPattern(54);
    Expected<ExecResult> run =
        tryRunVerified(p, m.loops[0], arrays, machine, mem, env, 33);
    EXPECT_TRUE(run.ok()) << run.status().str();
}

TEST(IterSplit, WiderUnrollFactors)
{
    Ctx c(kSaxpy);
    for (int unroll : {3, 4, 5, 6}) {
        IterSplitResult r = iterationSplit(
            c.loop(), c.module.arrays, c.va, c.machine, unroll);
        ASSERT_TRUE(r.ok) << unroll << ": " << r.reason;
        EXPECT_EQ(r.loop.coverage, unroll);

        LiveEnv env;
        env["a"] = RtVal::scalarF(0.75);
        MemoryImage ref(c.module.arrays), got(c.module.arrays);
        ref.fillPattern(55);
        got.fillPattern(55);
        ASSERT_TRUE(tryExecuteLoop(c.module.arrays, c.loop(), c.machine,
                                   ref, env, 60)
                        .ok());
        ASSERT_TRUE(tryExecuteLoop(c.module.arrays, r.loop, c.machine,
                                   got, env, 60 / unroll, 0)
                        .ok());
        // Compare only the fully covered prefix: run the remainder
        // sequentially from the right base.
        ASSERT_TRUE(tryExecuteLoop(c.module.arrays, c.loop(), c.machine,
                                   got, env, 60 % unroll,
                                   (60 / unroll) * unroll)
                        .ok());
        EXPECT_EQ(got.diff(ref), "");
    }
}

TEST(IterSplit, LiveOutsKeepNames)
{
    Ctx c(R"(
array X f64 600
loop t {
    body {
        x = load X[i]
        y = fneg x
        store X[i] = y
    }
    liveout y
}
)");
    IterSplitResult r =
        iterationSplit(c.loop(), c.module.arrays, c.va, c.machine, 3);
    ASSERT_TRUE(r.ok) << r.reason;
    ASSERT_EQ(r.loop.liveOuts.size(), 1u);
    EXPECT_EQ(r.loop.valueInfo(r.loop.liveOuts[0]).name, "y");
}

} // anonymous namespace
} // namespace selvec
