/**
 * @file
 * Property-based tests over randomly generated loops: for every seed,
 * machine and technique, the compiled software pipeline must be
 * bit-identical to the sequential reference, schedules must respect
 * their lower bounds, and the partitioner must obey its cost
 * invariants.
 */

#include <gtest/gtest.h>

#include "analysis/depgraph.hh"
#include "core/partition.hh"
#include "core/transform.hh"
#include "pipeline/checker.hh"
#include "pipeline/lowering.hh"
#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "ir/verifier.hh"
#include "workloads/generator.hh"

namespace selvec
{
namespace
{

class RandomLoops : public ::testing::TestWithParam<int>
{
  protected:
    GeneratedLoop
    make() const
    {
        Rng rng(0xABCD0000u + static_cast<uint64_t>(GetParam()));
        return generateLoop(rng);
    }
};

TEST_P(RandomLoops, GeneratedLoopsAreValid)
{
    GeneratedLoop g = make();
    EXPECT_GT(g.loop().numOps(), 0);
    // The builder verified it; re-run explicitly for a clear failure.
    EXPECT_EQ(verifyLoop(g.module.arrays, g.loop()), "");
}

TEST_P(RandomLoops, AllTechniquesMatchReference)
{
    GeneratedLoop g = make();
    for (Technique technique :
         {Technique::ModuloOnly, Technique::Traditional,
          Technique::Full, Technique::Selective}) {
        for (int mi = 0; mi < 3; ++mi) {
            Machine machine = mi == 0   ? paperMachine()
                              : mi == 1 ? toyMachine()
                                        : directMoveMachine();
            ArrayTable arrays = g.module.arrays;
            DriverOptions options;
            options.expansionSize = 256;
            CompiledProgram program = compileLoop(
                g.loop(), arrays, machine, technique, options);

            for (int64_t n : {5, 31, 64}) {
                MemoryImage mem(arrays);
                mem.fillPattern(42 + static_cast<uint64_t>(n));
                Expected<ExecResult> got =
                    tryRunVerified(program, g.loop(), arrays, machine,
                                   mem, g.liveIns, n);
                ASSERT_TRUE(got.ok())
                    << techniqueName(technique) << " n=" << n
                    << " machine=" << machine.name << ": "
                    << got.status().str();
            }
        }
    }
}

TEST_P(RandomLoops, ScheduleNeverBeatsItsLowerBounds)
{
    GeneratedLoop g = make();
    Machine machine = paperMachine();
    ArrayTable arrays = g.module.arrays;
    for (Technique technique :
         {Technique::ModuloOnly, Technique::Full,
          Technique::Selective}) {
        CompiledProgram program =
            compileLoop(g.loop(), arrays, machine, technique);
        for (const CompiledLoop &cl : program.loops) {
            EXPECT_GE(cl.mainSchedule.ii, cl.mainResMii);
            EXPECT_GE(cl.mainSchedule.ii, cl.mainRecMii);
        }
    }
}

TEST_P(RandomLoops, PartitionCostInvariants)
{
    GeneratedLoop g = make();
    Machine machine = paperMachine();
    DepGraph graph(g.module.arrays, g.loop(), machine);
    VectAnalysis va = analyzeVectorizable(g.loop(), graph, machine);
    PartitionResult pr = partitionOps(g.loop(), va, machine);

    // Kernighan-Lin starts all-scalar and keeps the best seen.
    EXPECT_LE(pr.bestCost, pr.allScalarCost);
    // Every vectorized op is a legal candidate.
    for (OpId op = 0; op < g.loop().numOps(); ++op) {
        if (pr.vectorize[static_cast<size_t>(op)]) {
            EXPECT_TRUE(va.vectorizable[static_cast<size_t>(op)]);
        }
    }
}

TEST_P(RandomLoops, TestSwitchLeavesBinsIntact)
{
    GeneratedLoop g = make();
    Machine machine = paperMachine();
    DepGraph graph(g.module.arrays, g.loop(), machine);
    VectAnalysis va = analyzeVectorizable(g.loop(), graph, machine);

    PartitionCostModel model(g.loop(), va, machine);
    std::vector<bool> part(static_cast<size_t>(g.loop().numOps()),
                           false);
    // Exercise from a random mixed configuration.
    Rng rng(7 + static_cast<uint64_t>(GetParam()));
    for (OpId op = 0; op < g.loop().numOps(); ++op) {
        part[static_cast<size_t>(op)] =
            va.vectorizable[static_cast<size_t>(op)] &&
            rng.chance(0.5);
    }
    model.rebuild(part);
    int64_t baseline = model.cost();
    for (OpId op = 0; op < g.loop().numOps(); ++op) {
        if (!va.vectorizable[static_cast<size_t>(op)])
            continue;
        model.testSwitch(op);
        ASSERT_EQ(model.cost(), baseline) << "op " << op;
    }
}

TEST_P(RandomLoops, TransformedLoopsRoundTripThroughLir)
{
    GeneratedLoop g = make();
    for (int mi = 0; mi < 3; ++mi) {
        Machine machine = mi == 0   ? paperMachine()
                          : mi == 1 ? toyMachine()
                                    : directMoveMachine();
        DepGraph graph(g.module.arrays, g.loop(), machine);
        VectAnalysis va = analyzeVectorizable(g.loop(), graph, machine);
        Loop vec = transformLoop(g.loop(), g.module.arrays, va,
                                 va.vectorizable, machine);

        Module round;
        round.arrays = g.module.arrays;
        round.loops.push_back(vec);
        std::string text = writeLir(round);
        ParseResult pr = parseLir(text);
        ASSERT_TRUE(pr.ok)
            << machine.name << ": " << pr.error << "\n" << text;
        const Loop &back = pr.module.loops.front();
        ASSERT_EQ(back.numOps(), vec.numOps()) << machine.name;
        for (OpId i = 0; i < vec.numOps(); ++i) {
            EXPECT_EQ(back.op(i).opcode, vec.op(i).opcode);
            EXPECT_EQ(back.op(i).srcs.size(), vec.op(i).srcs.size());
            EXPECT_EQ(back.op(i).ref.scale, vec.op(i).ref.scale);
            EXPECT_EQ(back.op(i).ref.offset, vec.op(i).ref.offset);
        }
        EXPECT_EQ(back.carried.size(), vec.carried.size());
        EXPECT_EQ(back.preloads.size(), vec.preloads.size());
        EXPECT_EQ(back.poststores.size(), vec.poststores.size());
        EXPECT_EQ(back.splatIns.size(), vec.splatIns.size());
        EXPECT_EQ(back.coverage, vec.coverage);
    }
}

TEST_P(RandomLoops, PartitionCostEqualsTransformedResMii)
{
    // The strongest coherence property of the backend approach: the
    // bins the partitioner packed are exactly the operations the
    // transformer emits, so the predicted cost IS the transformed
    // loop's ResMII.
    GeneratedLoop g = make();
    Machine machine = paperMachine();
    ArrayTable arrays = g.module.arrays;
    CompiledProgram p =
        compileLoop(g.loop(), arrays, machine, Technique::Selective);
    EXPECT_EQ(p.loops[0].mainResMii, p.partition.bestCost);
}

TEST_P(RandomLoops, LargeLoopsScheduleValidly)
{
    // Stress the iterative scheduler's displacement machinery with
    // bigger bodies than the suites use; the checker re-validates
    // resources and every dependence edge.
    Rng rng(0xBEEF0000u + static_cast<uint64_t>(GetParam()));
    GeneratorOptions big;
    big.minOps = 40;
    big.maxOps = 80;
    big.divProb = 0.10;
    GeneratedLoop g = generateLoop(rng, big);

    for (int mi = 0; mi < 2; ++mi) {
        Machine machine = mi == 0 ? paperMachine() : toyMachine();
        Loop lowered = lowerForScheduling(g.loop(), machine);
        DepGraph graph(g.module.arrays, lowered, machine);
        ScheduleResult sr = moduloSchedule(lowered, graph, machine);
        ASSERT_TRUE(sr.ok) << sr.error;
        EXPECT_EQ(validateSchedule(lowered, graph, machine,
                                   sr.schedule),
                  "");
        EXPECT_GE(sr.schedule.ii, sr.mii);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLoops, ::testing::Range(0, 40));

} // anonymous namespace
} // namespace selvec
