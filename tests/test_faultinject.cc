/**
 * @file
 * Fault-injection tests: the plan machinery itself (site registry,
 * hit-window semantics, plan parsing) and the headline sweep — every
 * injection point forced to fail on every shipped kernel, asserting
 * the compile fails as a structured status naming the site, never
 * dies, leaves the caller's array table alone, and that the next
 * compile under the spent plan still matches the sequential reference
 * bit-for-bit.
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
// The fault sweep.

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
 * kernel with the Selective technique: the compile must come back as
 * that site's error code, name the site and leave the caller's array
 * table as it was. The plan's one failure is then spent, so the next
 * compile of the same loop must succeed and match the reference
 * bit-for-bit.
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
    ScopedFaultPlan plan(planOf(site + ":1"));

    Expected<CompiledProgram> failed =
        tryCompileLoop(loop, arrays, machine, Technique::Selective);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), expectedCode(site))
        << failed.status().str();
    EXPECT_NE(failed.status().message().find(site), std::string::npos)
        << failed.status().str();
    ASSERT_EQ(arrays.size(), module.arrays.size());
    for (ArrayId a = 0; a < arrays.size(); ++a) {
        EXPECT_EQ(arrays[a].name, module.arrays[a].name);
        EXPECT_EQ(arrays[a].size, module.arrays[a].size);
    }

    Expected<CompiledProgram> program =
        tryCompileLoop(loop, arrays, machine, Technique::Selective);
    ASSERT_TRUE(program.ok()) << program.status().str();
    EXPECT_EQ(program.value().technique, Technique::Selective);

    MemoryImage mem(arrays);
    mem.fillPattern(7);
    Expected<ExecResult> got = tryRunVerified(
        program.value(), loop, arrays, machine, mem, env, n);
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

} // anonymous namespace
} // namespace selvec
