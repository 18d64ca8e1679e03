/**
 * @file
 * Unit tests for the compilation driver and the suite evaluator.
 */

#include <gtest/gtest.h>

#include "driver/evaluate.hh"
#include "driver/reportjson.hh"
#include "kernel_files.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "support/deadline.hh"
#include "support/stats.hh"
#include "workloads/workloads.hh"

namespace selvec
{
namespace
{

const char *kSaxpy = R"(
array X f64 300
array Y f64 300
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

TEST(Driver, CompileProducesMainAndCleanup)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine mach = paperMachine();
    for (Technique t : {Technique::ModuloOnly, Technique::Full,
                        Technique::Selective}) {
        ArrayTable arrays = m.arrays;
        CompiledProgram p = compileLoop(m.loops[0], arrays, mach, t);
        ASSERT_EQ(p.loops.size(), 1u) << techniqueName(t);
        EXPECT_EQ(p.loops[0].coverage, 2);
        EXPECT_EQ(p.loops[0].cleanup.coverage, 1);
        EXPECT_GT(p.loops[0].mainSchedule.ii, 0);
        EXPECT_GT(p.loops[0].cleanupSchedule.ii, 0);
    }
}

TEST(Driver, TraditionalMayProduceSeveralLoops)
{
    Module m = parseLirOrDie(R"(
array X f64 300
loop t {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        x2 = fmul x x
        s1 = fadd s x2
    }
    liveout s1
}
)");
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoop(m.loops[0], arrays, mach, Technique::Traditional);
    EXPECT_EQ(p.loops.size(), 2u);
}

TEST(Driver, PerIterationMetricsUseCoverage)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoop(m.loops[0], arrays, mach, Technique::ModuloOnly);
    EXPECT_DOUBLE_EQ(
        p.iiPerIteration(),
        static_cast<double>(p.loops[0].mainSchedule.ii) / 2.0);
    EXPECT_DOUBLE_EQ(p.resMiiPerIteration(),
                     static_cast<double>(p.loops[0].mainResMii) / 2.0);
}

TEST(Driver, RemainderRunsCleanup)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoop(m.loops[0], arrays, mach, Technique::Selective);

    LiveEnv env;
    env["a"] = RtVal::scalarF(1.25);

    for (int64_t n : {0, 1, 2, 3, 63, 64, 65}) {
        MemoryImage mem(arrays);
        mem.fillPattern(11);
        Expected<ExecResult> got =
            tryRunVerified(p, m.loops[0], arrays, mach, mem, env, n);
        ASSERT_TRUE(got.ok()) << "n=" << n << ": " << got.status().str();
        if (n > 0) {
            EXPECT_GT(got.value().cycles, 0);
        }
    }
}

TEST(Driver, ReductionChainsAcrossMainAndCleanup)
{
    Module m = parseLirOrDie(R"(
array X f64 300
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
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoop(m.loops[0], arrays, mach, Technique::ModuloOnly);

    LiveEnv env;
    env["s0"] = RtVal::scalarF(2.0);
    // Odd trip count: the final element flows through the cleanup.
    MemoryImage mem(arrays);
    mem.fillPattern(13);
    Expected<ExecResult> got =
        tryRunVerified(p, m.loops[0], arrays, mach, mem, env, 65);
    ASSERT_TRUE(got.ok()) << got.status().str();
    ASSERT_TRUE(got.value().env.count("s1"));
}

TEST(Driver, ResourceLimitedFlag)
{
    Machine mach = paperMachine();
    {
        Module m = parseLirOrDie(kSaxpy);
        ArrayTable arrays = m.arrays;
        CompiledProgram p = compileLoop(m.loops[0], arrays, mach,
                                        Technique::ModuloOnly);
        EXPECT_TRUE(p.resourceLimited);
    }
    {
        // A long fdiv recurrence is recurrence-bound.
        Module m = parseLirOrDie(R"(
array X f64 300
loop t {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        s1 = fdiv s x
    }
    liveout s1
}
)");
        ArrayTable arrays = m.arrays;
        CompiledProgram p = compileLoop(m.loops[0], arrays, mach,
                                        Technique::ModuloOnly);
        EXPECT_FALSE(p.resourceLimited);
    }
}

TEST(Driver, InvocationOverheadCharged)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoop(m.loops[0], arrays, mach, Technique::ModuloOnly);
    LiveEnv env;
    env["a"] = RtVal::scalarF(1.0);
    MemoryImage mem(arrays);
    ExecResult r0 = runCompiled(p, arrays, mach, mem, env, 0);
    EXPECT_EQ(r0.cycles, mach.invocationOverhead);
}

// ---------------------------------------------------------------------
// The reference check: tryRunVerified.

TEST(RunVerified, CleanRunEqualsThePlainRun)
{
    Machine mach = paperMachine();
    for (const std::string &file : kernelFiles()) {
        Module m = parseLirOrDie(readKernel(file));
        const Loop &loop = m.loops.front();
        LiveEnv env = bindLiveIns(loop);
        for (Technique t :
             {Technique::ModuloOnly, Technique::Selective}) {
            ArrayTable arrays = m.arrays;
            CompiledProgram p = compileLoop(loop, arrays, mach, t);

            MemoryImage mem(arrays);
            mem.fillPattern(19);
            Expected<ExecResult> verified =
                tryRunVerified(p, loop, arrays, mach, mem, env, 67);
            ASSERT_TRUE(verified.ok())
                << file << " " << techniqueName(t) << ": "
                << verified.status().str();

            MemoryImage plain_mem(arrays);
            plain_mem.fillPattern(19);
            Expected<ExecResult> plain =
                tryRunCompiled(p, arrays, mach, plain_mem, env, 67);
            ASSERT_TRUE(plain.ok()) << plain.status().str();

            EXPECT_EQ(verified.value().cycles, plain.value().cycles)
                << file << " " << techniqueName(t);
            EXPECT_EQ(verified.value().env, plain.value().env)
                << file << " " << techniqueName(t);
            // `mem` ends as the program left it.
            EXPECT_EQ(mem.diff(plain_mem), "")
                << file << " " << techniqueName(t);
        }
    }
}

/** tryRunVerified's status for `kernel`'s ModuloOnly program with the
 *  first fadd of its main loop turned into an fsub: a miscompile the
 *  check must catch. */
Status
flippedAddStatus(const std::string &kernel)
{
    Module m = parseLirOrDie(readKernel(kernel));
    const Loop &loop = m.loops.front();
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoop(loop, arrays, mach, Technique::ModuloOnly);
    for (Operation &op : p.loops[0].main.ops) {
        if (op.opcode == Opcode::FAdd) {
            op.opcode = Opcode::FSub;
            break;
        }
    }
    MemoryImage mem(arrays);
    mem.fillPattern(19);
    return tryRunVerified(p, loop, arrays, mach, mem, bindLiveIns(loop),
                          67)
        .status();
}

TEST(RunVerified, MemoryDivergenceNamesTheElement)
{
    Status st = flippedAddStatus("saxpy.lir");
    EXPECT_EQ(st.code(), ErrorCode::VerifyFailed);
    EXPECT_EQ(st.stage(), "verify");
    EXPECT_NE(st.message().find("Y[0]: "), std::string::npos) << st.str();
}

TEST(RunVerified, LiveOutDivergenceNamesTheValue)
{
    // dot stores nothing: only its live-out can tell.
    Status st = flippedAddStatus("dot.lir");
    EXPECT_EQ(st.code(), ErrorCode::VerifyFailed);
    EXPECT_EQ(st.stage(), "verify");
    EXPECT_NE(st.message().find("live-out 's1'"), std::string::npos)
        << st.str();
}

TEST(RunVerified, RunFailureComesBackWithoutAReferenceRun)
{
    Module m = parseLirOrDie(readKernel("saxpy.lir"));
    const Loop &loop = m.loops.front();
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoop(loop, arrays, mach, Technique::Selective);
    LiveEnv env = bindLiveIns(loop);

    StatsRegistry stats;
    ScopedStatsSink sink(stats);

    ExecLimits limits;
    limits.maxCycles = 1;   // no pipeline finishes in one cycle
    MemoryImage mem(arrays);
    mem.fillPattern(19);
    Expected<ExecResult> tripped =
        tryRunVerified(p, loop, arrays, mach, mem, env, 67, limits);
    ASSERT_FALSE(tripped.ok());
    EXPECT_EQ(tripped.status().code(), ErrorCode::WatchdogTripped);
    EXPECT_EQ(tripped.status().stage(), "sim");

    Expected<ExecResult> expired = [&] {
        ScopedDeadline guard(Deadline::afterMs(0));
        MemoryImage fresh(arrays);
        fresh.fillPattern(19);
        return tryRunVerified(p, loop, arrays, mach, fresh, env, 67);
    }();
    ASSERT_FALSE(expired.ok());
    EXPECT_EQ(expired.status().code(), ErrorCode::DeadlineExceeded);

    // Both program runs aborted; neither reached the reference.
    EXPECT_EQ(stats.value("sim.aborts"), 2);
    EXPECT_EQ(stats.value("sim.referenceRuns"), 0);
}

TEST(Evaluate, SuiteReportsAreConsistent)
{
    Suite suite = dotProductSuite();
    Machine mach = paperMachine();
    SuiteReport base =
        evaluateSuite(suite, mach, Technique::ModuloOnly);
    ASSERT_EQ(base.loops.size(), 1u);
    EXPECT_GT(base.totalCycles, 0);
    EXPECT_EQ(base.loops[0].weightedCycles,
              base.loops[0].cyclesPerInvocation *
                  base.loops[0].invocations);
    EXPECT_EQ(base.totalCycles, base.loops[0].weightedCycles);
    EXPECT_DOUBLE_EQ(speedupOver(base, base), 1.0);
}

TEST(Evaluate, SelectiveNeverSlowerOnDot)
{
    Suite suite = dotProductSuite();
    Machine mach = paperMachine();
    SuiteReport base =
        evaluateSuite(suite, mach, Technique::ModuloOnly);
    SuiteReport sel =
        evaluateSuite(suite, mach, Technique::Selective);
    EXPECT_GE(speedupOver(base, sel), 0.95);
}

// ---------------------------------------------------------------------
// The machine-readable report surface.

TEST(ReportJson, CompiledProgramReportsIiAtLeastResMii)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine mach = paperMachine();
    for (Technique t : {Technique::ModuloOnly, Technique::Full,
                        Technique::Selective}) {
        ArrayTable arrays = m.arrays;
        CompiledProgram p = compileLoop(m.loops[0], arrays, mach, t);
        JsonValue json = jsonOfCompiledProgram(p);

        EXPECT_EQ(json.find("technique")->stringValue(),
                  techniqueName(t));
        double ii = json.find("ii_per_iter")->numberValue();
        double res = json.find("res_mii_per_iter")->numberValue();
        EXPECT_GT(ii, 0.0) << techniqueName(t);
        EXPECT_GE(ii, res) << techniqueName(t);

        const JsonValue *loops = json.find("loops");
        ASSERT_NE(loops, nullptr);
        ASSERT_GT(loops->size(), 0u);
        for (const JsonValue &cl : loops->items()) {
            // The scheduler can never beat the resource bound.
            EXPECT_GE(cl.find("ii")->intValue(),
                      cl.find("res_mii")->intValue())
                << techniqueName(t);
            EXPECT_GT(cl.find("coverage")->intValue(), 0);
        }
    }
}

TEST(ReportJson, SuiteComparisonCarriesSpeedupAndMiis)
{
    Suite suite = dotProductSuite();
    Machine mach = paperMachine();
    SuiteReport base =
        evaluateSuite(suite, mach, Technique::ModuloOnly);
    SuiteReport sel =
        evaluateSuite(suite, mach, Technique::Selective);
    JsonValue json = jsonOfSuiteComparison(base, {sel});

    ASSERT_EQ(json.find("techniques")->size(), 1u);
    const JsonValue &tech = json.find("techniques")->items()[0];
    EXPECT_EQ(tech.find("technique")->stringValue(), "selective");
    EXPECT_DOUBLE_EQ(tech.find("speedup")->numberValue(),
                     speedupOver(base, sel));
    for (const JsonValue &loop : tech.find("loops")->items()) {
        double ii = loop.find("ii_per_iter")->numberValue();
        EXPECT_GE(ii, loop.find("res_mii_per_iter")->numberValue());
        EXPECT_GT(loop.find("weighted_cycles")->intValue(), 0);
        EXPECT_GT(loop.find("speedup")->numberValue(), 0.0);
    }

    // The emitted document survives a serialize/parse round-trip.
    Expected<JsonValue> back = parseJson(json.dump(2));
    ASSERT_TRUE(back.ok()) << back.status().str();
    EXPECT_EQ(back.value(), json);
}

} // anonymous namespace
} // namespace selvec
