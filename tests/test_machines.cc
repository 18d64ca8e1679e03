/**
 * @file
 * Tests for the stock machine configurations beyond the paper pair,
 * and cross-machine functional equivalence: a machine description may
 * change every schedule and partition, but never the computed result.
 */

#include <gtest/gtest.h>

#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"

namespace selvec
{
namespace
{

TEST(Machines, SweepConfigsValidate)
{
    wideMachine().validate();
    embeddedMachine().validate();
    EXPECT_EQ(wideMachine().unitCount(ResKind::VecUnit), 2);
    EXPECT_EQ(wideMachine().unitCount(ResKind::Slot), 8);
    EXPECT_EQ(embeddedMachine().unitCount(ResKind::FpUnit), 1);
    EXPECT_EQ(embeddedMachine().transfer, TransferModel::DirectMove);
    EXPECT_EQ(embeddedMachine().alignment,
              AlignPolicy::AssumeAligned);
}

TEST(Machines, NamesAreDistinct)
{
    EXPECT_NE(paperMachine().name, wideMachine().name);
    EXPECT_NE(wideMachine().name, embeddedMachine().name);
    EXPECT_NE(directMoveMachine().name, paperMachine().name);
}

const char *kKernel = R"(
array A f64 300
array B f64 300
loop k {
    livein c f64
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        a = load A[i]
        b = load A[i + 1]
        p = fmul a b
        q = fadd p c
        r = fmul q q
        s1 = fadd s r
        store B[i] = r
    }
    liveout s1
}
)";

TEST(Machines, ResultsAreMachineIndependent)
{
    Module m = parseLirOrDie(kKernel);
    LiveEnv env;
    env["c"] = RtVal::scalarF(0.25);
    env["s0"] = RtVal::scalarF(1.0);

    // Reference under any machine (semantics are machine-free).
    MemoryImage ref_mem(m.arrays);
    ref_mem.fillPattern(91);
    ExecResult ref = runReference(m.loops[0], m.arrays,
                                  paperMachine(), ref_mem, env, 97);

    for (const Machine &machine :
         {paperMachine(), directMoveMachine(), wideMachine(),
          embeddedMachine(), toyMachine()}) {
        for (Technique t :
             {Technique::ModuloOnly, Technique::Full,
              Technique::Selective}) {
            ArrayTable arrays = m.arrays;
            CompiledProgram p =
                compileLoop(m.loops[0], arrays, machine, t);
            MemoryImage mem(arrays);
            mem.fillPattern(91);
            Expected<ExecResult> got = tryRunVerified(
                p, m.loops[0], arrays, machine, mem, env, 97);
            ASSERT_TRUE(got.ok())
                << machine.name << " " << techniqueName(t) << ": "
                << got.status().str();
            ASSERT_TRUE(got.value().env.count("s1"));
            // Every machine also matches the paper machine's reference.
            EXPECT_EQ(mem.diff(ref_mem), "")
                << machine.name << " " << techniqueName(t);
            EXPECT_EQ(got.value().env.at("s1"), ref.env.at("s1"))
                << machine.name << " " << techniqueName(t);
        }
    }
}

TEST(Machines, EmbeddedMachineRewardsVectorization)
{
    // One scalar FP unit: offloading arithmetic is the only way to
    // keep the pipeline short.
    Module m = parseLirOrDie(kKernel);
    Machine machine = embeddedMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram base =
        compileLoop(m.loops[0], arrays, machine, Technique::ModuloOnly);
    CompiledProgram sel =
        compileLoop(m.loops[0], arrays, machine, Technique::Selective);
    EXPECT_LT(sel.iiPerIteration(), base.iiPerIteration());
}

} // anonymous namespace
} // namespace selvec
