/**
 * @file
 * Tests for the misalignment machinery: phase computation, the
 * previous-iteration reuse scheme, the two-load fallback for
 * dependence-entangled streams, partial-chunk priming and draining,
 * and the cost-model consequences (Table 5's mechanism).
 */

#include <gtest/gtest.h>

#include "analysis/depgraph.hh"
#include "core/transform.hh"
#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "support/logging.hh"

namespace selvec
{
namespace
{

struct Ctx
{
    Module module;
    Machine machine;
    VectAnalysis va;

    Ctx(const std::string &text, Machine m) : machine(std::move(m))
    {
        ParseResult pr = parseLir(text);
        EXPECT_TRUE(pr.ok) << pr.error;
        module = std::move(pr.module);
        DepGraph graph(module.arrays, module.loops[0], machine);
        va = analyzeVectorizable(module.loops[0], graph, machine);
    }

    const Loop &loop() const { return module.loops.front(); }

    Loop
    vectorizeAll()
    {
        return transformLoop(loop(), module.arrays, va,
                             va.vectorizable, machine);
    }
};

TEST(Alignment, EvenPhaseStillPaysMergeUnderMisalignedPolicy)
{
    // The paper assumes no alignment information: even a phase-0
    // reference compiles with the merge (and it must stay correct).
    Ctx c(R"(
array A f64 300
array B f64 300
loop t {
    body {
        x = load A[i + 4]
        y = fneg x
        store B[i + 2] = y
    }
}
)",
          paperMachine());
    Loop vec = c.vectorizeAll();
    int merges = 0;
    for (const Operation &op : vec.ops)
        merges += op.opcode == Opcode::VMerge;
    EXPECT_EQ(merges, 2);

    MemoryImage ref(c.module.arrays), got(c.module.arrays);
    ref.fillPattern(31);
    got.fillPattern(31);
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, c.loop(), c.machine, ref, {},
                               64)
                    .ok());
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, vec, c.machine, got, {}, 32)
                    .ok());
    EXPECT_EQ(got.diff(ref), "");
}

TEST(Alignment, OddStorePhaseDrainsThroughPoststores)
{
    Ctx c(R"(
array A f64 300
array B f64 300
loop t {
    body {
        x = load A[i]
        y = fneg x
        store B[i + 3] = y
    }
}
)",
          paperMachine());
    Loop vec = c.vectorizeAll();
    // phi = 1 for VL 2: one poststore drains the final element.
    EXPECT_EQ(vec.poststores.size(), 1u);
    EXPECT_FALSE(vec.preloads.empty());

    MemoryImage ref(c.module.arrays), got(c.module.arrays);
    ref.fillPattern(33);
    got.fillPattern(33);
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, c.loop(), c.machine, ref, {},
                               64)
                    .ok());
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, vec, c.machine, got, {}, 32)
                    .ok());
    EXPECT_EQ(got.diff(ref), "");
}

TEST(Alignment, StorePrefixPreservesUntouchedElements)
{
    // The misaligned store's first chunk writes back preloaded
    // original values below the store range; they must be preserved
    // exactly (diff() compares the whole array).
    Ctx c(R"(
array A f64 300
array B f64 300
loop t {
    livein s f64
    body {
        x = load A[i]
        y = fmul x s
        store B[i + 7] = y
    }
}
)",
          paperMachine());
    Loop vec = c.vectorizeAll();
    LiveEnv env;
    env["s"] = RtVal::scalarF(3.0);
    MemoryImage ref(c.module.arrays), got(c.module.arrays);
    ref.fillPattern(35);
    got.fillPattern(35);
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, c.loop(), c.machine, ref, env,
                               50)
                    .ok());
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, vec, c.machine, got, env, 25)
                    .ok());
    EXPECT_EQ(got.diff(ref), "");
}

TEST(Alignment, EntangledLoadUsesTwoLoadFallback)
{
    // A store writes what a later iteration loads (flow distance 0
    // through program order store->load): the reuse chunk would be
    // stale, so the load compiles as two aligned loads + merge with
    // no carried state.
    Ctx c(R"(
array A f64 300
loop t {
    livein cc f64
    body {
        store A[i + 4] = cc
        x = load A[i + 4]
        y = fneg x
        store A[i + 9] = y
    }
}
)",
          paperMachine());
    ASSERT_TRUE(c.va.memEntangled[1]);   // the load
    Loop vec = c.vectorizeAll();

    LiveEnv env;
    env["cc"] = RtVal::scalarF(1.25);
    MemoryImage ref(c.module.arrays), got(c.module.arrays);
    ref.fillPattern(37);
    got.fillPattern(37);
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, c.loop(), c.machine, ref, env,
                               64)
                    .ok());
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, vec, c.machine, got, env, 32)
                    .ok());
    EXPECT_EQ(got.diff(ref), "");
}

TEST(Alignment, EntangledStoreStaysScalar)
{
    // A store whose deferred chunks would reorder against a
    // dependent load (store->load flow at distance 1) must not be
    // compiled misaligned: the analysis keeps it scalar.
    Ctx c(R"(
array A f64 300
loop t {
    livein cc f64
    body {
        x = load A[i + 6]
        y = fmul x cc
        store A[i + 7] = y
    }
}
)",
          paperMachine());
    // The memory cycle at distance 1 already blocks vectorization of
    // the whole chain here; check the flag machinery directly on a
    // clean distance >= VL variant instead.
    Ctx d(R"(
array A f64 300
loop t {
    livein cc f64
    body {
        x = load A[i]
        y = fmul x cc
        store A[i + 5] = y
    }
}
)",
          paperMachine());
    // Distance 5 >= VL: vectorizable as a cycle, but the store's
    // deferred writes sit within 2*VL of the dependent load, so the
    // misaligned store is refused while the load falls back to two
    // aligned loads.
    EXPECT_TRUE(d.va.vectorizable[0]);
    EXPECT_FALSE(d.va.vectorizable[2]);

    Loop vec = d.vectorizeAll();
    LiveEnv env;
    env["cc"] = RtVal::scalarF(0.5);
    MemoryImage ref(d.module.arrays), got(d.module.arrays);
    ref.fillPattern(39);
    got.fillPattern(39);
    ASSERT_TRUE(tryExecuteLoop(d.module.arrays, d.loop(), d.machine, ref, env,
                               64)
                    .ok());
    ASSERT_TRUE(tryExecuteLoop(d.module.arrays, vec, d.machine, got, env, 32)
                    .ok());
    EXPECT_EQ(got.diff(ref), "");
}

TEST(Alignment, AlignedPolicySkipsAllMachinery)
{
    Machine aligned = paperMachine();
    aligned.alignment = AlignPolicy::AssumeAligned;
    Ctx c(R"(
array A f64 300
array B f64 300
loop t {
    body {
        x = load A[i + 3]
        y = fneg x
        store B[i + 5] = y
    }
}
)",
          aligned);
    Loop vec = c.vectorizeAll();
    for (const Operation &op : vec.ops)
        EXPECT_NE(op.opcode, Opcode::VMerge);
    EXPECT_TRUE(vec.preloads.empty());
    EXPECT_TRUE(vec.poststores.empty());

    MemoryImage ref(c.module.arrays), got(c.module.arrays);
    ref.fillPattern(41);
    got.fillPattern(41);
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, c.loop(), aligned, ref, {}, 64)
                    .ok());
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, vec, aligned, got, {}, 32)
                    .ok());
    EXPECT_EQ(got.diff(ref), "");
}

TEST(Alignment, DriverEndToEndOddTripCounts)
{
    // Misaligned loads + stores + cleanup loop over awkward trips.
    Module m = parseLirOrDie(R"(
array A f64 300
array B f64 300
loop t {
    livein w f64
    body {
        a = load A[i + 1]
        b = load A[i + 2]
        s = fadd a b
        sw = fmul s w
        store B[i + 3] = sw
    }
}
)");
    Machine machine = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoop(m.loops[0], arrays, machine, Technique::Full);
    LiveEnv env;
    env["w"] = RtVal::scalarF(0.5);
    for (int64_t n : {1, 2, 3, 17, 64, 99}) {
        MemoryImage mem(arrays), ref(arrays);
        mem.fillPattern(43);
        ref.fillPattern(43);
        runCompiled(p, arrays, machine, mem, env, n);
        runReference(m.loops[0], arrays, machine, ref, env, n);
        EXPECT_EQ(mem.diff(ref), "") << "n=" << n;
    }
}

TEST(Alignment, Table5MechanismAlignedCostsLess)
{
    // The partitioner's vector-memory bags shrink under perfect
    // alignment, which is all Table 5 measures.
    Module m = parseLirOrDie(R"(
array A f64 300
array B f64 300
loop t {
    body {
        x = load A[i]
        y = fneg x
        store B[i] = y
    }
}
)");
    Machine mis = paperMachine();
    Machine ali = paperMachine();
    ali.alignment = AlignPolicy::AssumeAligned;

    DepGraph g1(m.arrays, m.loops[0], mis);
    VectAnalysis va1 = analyzeVectorizable(m.loops[0], g1, mis);
    PartitionCostModel pm1(m.loops[0], va1, mis);
    DepGraph g2(m.arrays, m.loops[0], ali);
    VectAnalysis va2 = analyzeVectorizable(m.loops[0], g2, ali);
    PartitionCostModel pm2(m.loops[0], va2, ali);

    EXPECT_GT(pm1.opcodesFor(0, true).size(),
              pm2.opcodesFor(0, true).size());
}

class WideVectors
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(WideVectors, MisalignedEquivalenceAtAnyVectorLength)
{
    int vl = std::get<0>(GetParam());
    int offset = std::get<1>(GetParam());
    Machine machine = paperMachine();
    machine.vectorLength = vl;

    std::string text = strfmt(R"(
array X f64 600
array Y f64 600
loop t {
    livein a f64
    body {
        x = load X[i + %d]
        y = load X[i + %d]
        s = fadd x y
        ax = fmul a s
        store Y[i + %d] = ax
    }
}
)",
                              offset, offset + 1, offset + 2);
    Ctx c(text, machine);
    Loop vec = transformLoop(c.loop(), c.module.arrays, c.va,
                             c.va.vectorizable, machine);
    EXPECT_EQ(vec.coverage, vl);

    LiveEnv env;
    env["a"] = RtVal::scalarF(1.5);
    MemoryImage ref(c.module.arrays), got(c.module.arrays);
    ref.fillPattern(95);
    got.fillPattern(95);
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, c.loop(), machine, ref, env,
                               96)
                    .ok());
    ASSERT_TRUE(tryExecuteLoop(c.module.arrays, vec, machine, got, env,
                               96 / vl)
                    .ok());
    EXPECT_EQ(got.diff(ref), "");
}

INSTANTIATE_TEST_SUITE_P(
    Phases, WideVectors,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(1, 2, 3, 5, 7, 8)),
    [](const auto &info) {
        return "vl" + std::to_string(std::get<0>(info.param)) +
               "_off" + std::to_string(std::get<1>(info.param));
    });

} // anonymous namespace
} // namespace selvec
