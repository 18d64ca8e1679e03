/**
 * @file
 * End-to-end smoke tests: the Figure 1 dot product compiled under all
 * four techniques on both stock machines, with the pipelined execution
 * checked bit-for-bit against the sequential reference.
 */

#include <gtest/gtest.h>

#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"

namespace selvec
{
namespace
{

const char *kDotProduct = R"(
array X f64 4096
array Y f64 4096

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

class SmokeTest : public ::testing::TestWithParam<
                      std::tuple<Technique, bool, int64_t>>
{
};

TEST_P(SmokeTest, MatchesReference)
{
    auto [technique, use_toy, n] = GetParam();
    Module module = parseLirOrDie(kDotProduct);
    Machine machine = use_toy ? toyMachine() : paperMachine();
    const Loop &loop = module.loops.front();

    LiveEnv env;
    env["s0"] = RtVal::scalarF(1.5);

    CompiledProgram program =
        compileLoop(loop, module.arrays, machine, technique);
    MemoryImage mem(module.arrays);
    mem.fillPattern(42);
    Expected<ExecResult> got = tryRunVerified(
        program, loop, module.arrays, machine, mem, env, n);
    ASSERT_TRUE(got.ok()) << got.status().str();
    ASSERT_TRUE(got.value().env.count("s1"));
    EXPECT_GT(got.value().cycles, 0);
}

std::string
smokeName(
    const ::testing::TestParamInfo<std::tuple<Technique, bool, int64_t>>
        &info)
{
    Technique t = std::get<0>(info.param);
    bool toy = std::get<1>(info.param);
    int64_t n = std::get<2>(info.param);
    return std::string(techniqueName(t)) + (toy ? "_toy_" : "_paper_") +
           "n" + std::to_string(n);
}

INSTANTIATE_TEST_SUITE_P(
    AllTechniques, SmokeTest,
    ::testing::Combine(
        ::testing::Values(Technique::ModuloOnly, Technique::Traditional,
                          Technique::Full, Technique::Selective),
        ::testing::Bool(),
        ::testing::Values<int64_t>(1, 2, 7, 64, 65)),
    smokeName);

/** Figure 1's headline: selective vectorization reaches II 1.0 on the
 *  toy machine where the alternatives cannot. */
TEST(Figure1, SelectiveReachesIiOne)
{
    Module module = parseLirOrDie(kDotProduct);
    Machine machine = toyMachine();
    const Loop &loop = module.loops.front();

    ArrayTable arrays = module.arrays;
    CompiledProgram sel =
        compileLoop(loop, arrays, machine, Technique::Selective);
    EXPECT_DOUBLE_EQ(sel.iiPerIteration(), 1.0);

    CompiledProgram full =
        compileLoop(loop, arrays, machine, Technique::Full);
    EXPECT_DOUBLE_EQ(full.iiPerIteration(), 1.5);

    CompiledProgram trad =
        compileLoop(loop, arrays, machine, Technique::Traditional);
    EXPECT_DOUBLE_EQ(trad.iiPerIteration(), 3.0);
}

} // anonymous namespace
} // namespace selvec
