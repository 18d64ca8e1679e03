/**
 * @file
 * Fault-injection tests: the plan machinery itself (site registry,
 * hit-window semantics, plan parsing) and the headline resilience
 * sweep — every injection point forced to fail on every shipped
 * kernel, asserting the driver degrades through the fallback chain in
 * order, never dies, and the degraded program still matches the
 * sequential reference bit-for-bit.
 */

#include <gtest/gtest.h>

#include "driver/driver.hh"
#include "kernel_files.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "support/faultinject.hh"

namespace selvec
{
namespace
{

FaultPlan
planOf(const std::string &spec)
{
    Expected<FaultPlan> plan = parseFaultPlan(spec);
    EXPECT_TRUE(plan.ok()) << plan.status().str();
    return plan.ok() ? plan.takeValue() : FaultPlan{};
}

TEST(FaultRegistry, KnowsEveryPipelineStage)
{
    const std::vector<std::string> &sites = faultSiteNames();
    EXPECT_EQ(sites.size(), 6u);
    for (const char *site :
         {"partition.kl", "modsched.search", "modsched.stall",
          "lowering.lower", "checker.validate", "sim.watchdog"}) {
        EXPECT_TRUE(faultSiteKnown(site)) << site;
    }
    EXPECT_FALSE(faultSiteKnown("no.such.site"));
}

TEST(FaultPlanParse, Forms)
{
    FaultPlan plan = planOf(
        "partition.kl,modsched.search:3,lowering.lower:*,"
        "checker.validate:2+5");
    ASSERT_EQ(plan.sites.size(), 4u);
    EXPECT_EQ(plan.sites["partition.kl"].skip, 0);
    EXPECT_EQ(plan.sites["partition.kl"].failures, 1);
    EXPECT_EQ(plan.sites["modsched.search"].failures, 3);
    EXPECT_LT(plan.sites["lowering.lower"].failures, 0);
    EXPECT_EQ(plan.sites["checker.validate"].skip, 2);
    EXPECT_EQ(plan.sites["checker.validate"].failures, 5);
}

TEST(FaultPlanParse, RejectsUnknownSiteAndBadCounts)
{
    for (const char *spec :
         {"no.such.site", "partition.kl:x", "partition.kl:1+",
          "modsched.search:", "partition.kl:-2"}) {
        Expected<FaultPlan> plan = parseFaultPlan(spec);
        EXPECT_FALSE(plan.ok()) << spec;
        if (!plan.ok()) {
            EXPECT_EQ(plan.status().code(), ErrorCode::InvalidInput)
                << spec;
        }
    }
}

TEST(FaultPoint, UnarmedSitesAreFree)
{
    clearFaultPlan();
    EXPECT_FALSE(faultPointHit("partition.kl"));
    EXPECT_FALSE(faultPointHit("modsched.search"));
}

TEST(FaultPoint, SkipAndFailureWindow)
{
    ScopedFaultPlan plan(planOf("modsched.search:1+2"));
    EXPECT_FALSE(faultPointHit("modsched.search"));   // skipped
    EXPECT_TRUE(faultPointHit("modsched.search"));    // failure 1
    EXPECT_TRUE(faultPointHit("modsched.search"));    // failure 2
    EXPECT_FALSE(faultPointHit("modsched.search"));   // window spent
    EXPECT_FALSE(faultPointHit("partition.kl"));      // unarmed site
    EXPECT_EQ(faultHits("modsched.search"), 4);
    EXPECT_EQ(faultHits("partition.kl"), 1);
}

TEST(FaultPoint, ScopedPlanUninstalls)
{
    {
        ScopedFaultPlan plan(planOf("partition.kl:*"));
        EXPECT_TRUE(faultPointHit("partition.kl"));
    }
    EXPECT_FALSE(faultPointHit("partition.kl"));
    EXPECT_EQ(faultHits("partition.kl"), 0);   // counts were reset
}

// ---------------------------------------------------------------------
// The resilience sweep.

ErrorCode
expectedCode(const std::string &site)
{
    if (site == "partition.kl")
        return ErrorCode::PartitionFailed;
    if (site == "modsched.search")
        return ErrorCode::ScheduleBudgetExhausted;
    // modsched.stall: without an armed deadline the hang site fails
    // instantly as an exhausted II search, keeping sweeps fast (the
    // contained-hang form is exercised by the containment tests).
    if (site == "modsched.stall")
        return ErrorCode::ScheduleBudgetExhausted;
    if (site == "lowering.lower")
        return ErrorCode::Internal;
    return ErrorCode::VerifyFailed;   // checker.validate
}

/**
 * The sweep covers the compile-path sites. sim.watchdog lives in the
 * simulator's bounded-run path — a compile never polls it — and is
 * exercised by the containment tests instead.
 */
std::vector<std::string>
compileTimeSites()
{
    std::vector<std::string> sites;
    for (const std::string &site : faultSiteNames())
        if (site != "sim.watchdog")
            sites.push_back(site);
    return sites;
}

class FaultSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

/**
 * Fail the first hit of one injection point while compiling one
 * kernel with the Selective technique: the first tier must fail with
 * that site's error code, a later tier must succeed, and the degraded
 * program must still match the reference bit-for-bit.
 */
TEST_P(FaultSweep, DegradesAndStaysBitExact)
{
    auto [site, kernel] = GetParam();
    Module module = parseLirOrDie(readKernel(kernel));
    Machine machine = paperMachine();
    const Loop &loop = module.loops.front();
    LiveEnv env = bindLiveIns(loop);
    const int64_t n = 67;   // odd, so cleanup loops run too

    ArrayTable arrays = module.arrays;
    ResilientCompile rc = [&] {
        ScopedFaultPlan plan(planOf(site + ":1"));
        return compileLoopResilient(loop, arrays, machine,
                                    Technique::Selective);
    }();

    // (a) the process is alive; (b) the chain engaged in order: the
    // requested tier absorbed the injected failure, the next succeeded.
    ASSERT_TRUE(rc.ok()) << rc.report.str();
    ASSERT_GE(rc.report.attempts.size(), 2u) << rc.report.str();
    const CompileAttempt &first = rc.report.attempts.front();
    EXPECT_EQ(first.technique, Technique::Selective);
    EXPECT_FALSE(first.status.ok());
    EXPECT_EQ(first.status.code(), expectedCode(site))
        << first.status.str();
    EXPECT_NE(first.status.message().find(site), std::string::npos)
        << first.status.str();
    const CompileAttempt &last = rc.report.attempts.back();
    EXPECT_TRUE(last.status.ok());
    EXPECT_EQ(last.fallbackReason, first.status.str());
    EXPECT_TRUE(rc.report.degraded());
    EXPECT_EQ(rc.report.finalTechnique, Technique::Full);
    EXPECT_FALSE(rc.report.usedScalarFallback);

    // (c) the degraded program is still correct, bit for bit.
    MemoryImage mem(arrays);
    mem.fillPattern(7);
    Expected<ExecResult> got = tryRunVerified(rc.program, loop, arrays,
                                              machine, mem, env, n);
    ASSERT_TRUE(got.ok()) << got.status().str();
}

std::string
sweepName(const ::testing::TestParamInfo<
          std::tuple<std::string, std::string>> &info)
{
    std::string name =
        std::get<0>(info.param) + "_" + std::get<1>(info.param);
    for (char &c : name) {
        if (c == '.' || c == '-')
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSitesAllKernels, FaultSweep,
    ::testing::Combine(::testing::ValuesIn(compileTimeSites()),
                       ::testing::ValuesIn(kernelFiles())),
    sweepName);

/** A failure that persists across tiers walks the whole chain:
 *  Selective, Full, ModuloOnly, then the scalar last resort. */
TEST(FaultChain, WalksEveryTierInOrder)
{
    Module module = parseLirOrDie(readKernel("dot.lir"));
    ArrayTable arrays = module.arrays;

    ScopedFaultPlan plan(planOf("modsched.search:3"));
    ResilientCompile rc =
        compileLoopResilient(module.loops.front(), arrays,
                             paperMachine(), Technique::Selective);

    ASSERT_TRUE(rc.ok()) << rc.report.str();
    ASSERT_EQ(rc.report.attempts.size(), 4u);
    EXPECT_EQ(rc.report.attempts[0].technique, Technique::Selective);
    EXPECT_EQ(rc.report.attempts[1].technique, Technique::Full);
    EXPECT_EQ(rc.report.attempts[2].technique, Technique::ModuloOnly);
    EXPECT_FALSE(rc.report.attempts[2].scalarFallback);
    EXPECT_TRUE(rc.report.attempts[3].scalarFallback);
    EXPECT_TRUE(rc.report.attempts[3].status.ok());
    EXPECT_TRUE(rc.report.usedScalarFallback);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(rc.report.attempts[static_cast<size_t>(i)]
                      .status.code(),
                  ErrorCode::ScheduleBudgetExhausted);
    }
    for (size_t i = 1; i < 4; ++i) {
        EXPECT_EQ(rc.report.attempts[i].fallbackReason,
                  rc.report.attempts[i - 1].status.str());
    }
}

/** When every tier fails, the driver still does not die: the report
 *  carries the last failure and ok() is false. */
TEST(FaultChain, TotalFailureIsReportedNotFatal)
{
    Module module = parseLirOrDie(readKernel("saxpy.lir"));
    ArrayTable arrays = module.arrays;

    ScopedFaultPlan plan(planOf("modsched.search:*"));
    ResilientCompile rc =
        compileLoopResilient(module.loops.front(), arrays,
                             paperMachine(), Technique::Selective);

    EXPECT_FALSE(rc.ok());
    ASSERT_EQ(rc.report.attempts.size(), 4u);
    for (const CompileAttempt &a : rc.report.attempts)
        EXPECT_FALSE(a.status.ok());
    EXPECT_FALSE(rc.report.finalStatus.ok());
    EXPECT_EQ(rc.report.finalStatus.code(),
              ErrorCode::ScheduleBudgetExhausted);
    EXPECT_TRUE(rc.report.degraded());
    // The report renders every tier for logs.
    std::string rendered = rc.report.str();
    EXPECT_NE(rendered.find("selective"), std::string::npos);
    EXPECT_NE(rendered.find("scalar"), std::string::npos);
    EXPECT_NE(rendered.find("all tiers failed"), std::string::npos);
}

/** An undisturbed resilient compile uses the requested technique and
 *  reports a single successful attempt. */
TEST(FaultChain, NoFaultMeansNoDegradation)
{
    Module module = parseLirOrDie(readKernel("dot.lir"));
    ArrayTable arrays = module.arrays;
    ResilientCompile rc =
        compileLoopResilient(module.loops.front(), arrays,
                             paperMachine(), Technique::Selective);
    ASSERT_TRUE(rc.ok());
    EXPECT_FALSE(rc.report.degraded());
    ASSERT_EQ(rc.report.attempts.size(), 1u);
    EXPECT_TRUE(rc.report.attempts[0].status.ok());
    EXPECT_GT(rc.report.attempts[0].iiPerIteration, 0.0);
}

} // anonymous namespace
} // namespace selvec
