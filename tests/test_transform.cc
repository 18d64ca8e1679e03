/**
 * @file
 * Unit tests for the loop transformer (section 3.3): unrolling,
 * vector opcode substitution, transfer insertion, misalignment
 * lowering and live-out naming. Functional equivalence is checked by
 * executing the transformed loop against the reference interpreter.
 */

#include <gtest/gtest.h>

#include "analysis/depgraph.hh"
#include "core/transform.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "sim/executor.hh"
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

    Ctx(const char *text, Machine m) : machine(std::move(m))
    {
        ParseResult pr = parseLir(text);
        EXPECT_TRUE(pr.ok) << pr.error;
        module = std::move(pr.module);
        DepGraph graph(module.arrays, module.loops[0], machine);
        va = analyzeVectorizable(module.loops[0], graph, machine);
    }

    const Loop &loop() const { return module.loops.front(); }

    std::vector<bool>
    partitionAll() const
    {
        return va.vectorizable;
    }

    /** Run original (reference) and transformed over n iterations of
     *  the transformed loop's coverage and compare memory. */
    void
    expectEquivalent(const Loop &transformed, int64_t n_orig,
                     const LiveEnv &env)
    {
        ASSERT_EQ(n_orig % transformed.coverage, 0)
            << "test harness wants whole body iterations";
        MemoryImage ref(module.arrays);
        ref.fillPattern(99);
        ASSERT_TRUE(
            tryExecuteLoop(module.arrays, loop(), machine, ref, env, n_orig)
                .ok());

        MemoryImage got(module.arrays);
        got.fillPattern(99);
        ASSERT_TRUE(tryExecuteLoop(module.arrays, transformed, machine,
                                   got, env,
                                   n_orig / transformed.coverage)
                        .ok());

        EXPECT_EQ(got.diff(ref), "");
    }
};

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

TEST(Transform, UnrollDoublesCoverageAndOps)
{
    Ctx c(kSaxpy, paperMachine());
    Loop unrolled = unrollLoop(c.loop(), c.module.arrays, c.machine);
    EXPECT_EQ(unrolled.coverage, 2);
    EXPECT_EQ(unrolled.numOps(), 2 * c.loop().numOps());
    // Replica refs: scale doubles, offsets split by replica.
    EXPECT_EQ(unrolled.ops[0].ref.scale, 2);
}

TEST(Transform, UnrollEquivalence)
{
    Ctx c(kSaxpy, paperMachine());
    Loop unrolled = unrollLoop(c.loop(), c.module.arrays, c.machine);
    LiveEnv env;
    env["a"] = RtVal::scalarF(1.5);
    c.expectEquivalent(unrolled, 64, env);
}

TEST(Transform, FullVectorSubstitutesOpcodes)
{
    Machine aligned = paperMachine();
    aligned.alignment = AlignPolicy::AssumeAligned;
    Ctx c(kSaxpy, aligned);
    Loop vec = transformLoop(c.loop(), c.module.arrays, c.va,
                             c.partitionAll(), c.machine);
    int vloads = 0, vstores = 0, vfmul = 0, vfadd = 0, splats = 0;
    for (const Operation &op : vec.ops) {
        vloads += op.opcode == Opcode::VLoad;
        vstores += op.opcode == Opcode::VStore;
        vfmul += op.opcode == Opcode::VFMul;
        vfadd += op.opcode == Opcode::VFAdd;
    }
    splats = static_cast<int>(vec.splatIns.size());
    EXPECT_EQ(vloads, 2);
    EXPECT_EQ(vstores, 1);
    EXPECT_EQ(vfmul, 1);
    EXPECT_EQ(vfadd, 1);
    EXPECT_EQ(splats, 1);   // the loop-invariant 'a'
    EXPECT_EQ(vec.numOps(), 5);
}

TEST(Transform, FullVectorEquivalenceAligned)
{
    Machine aligned = paperMachine();
    aligned.alignment = AlignPolicy::AssumeAligned;
    Ctx c(kSaxpy, aligned);
    Loop vec = transformLoop(c.loop(), c.module.arrays, c.va,
                             c.partitionAll(), aligned);
    LiveEnv env;
    env["a"] = RtVal::scalarF(-0.75);
    c.expectEquivalent(vec, 64, env);
}

TEST(Transform, MisalignedLoadUsesMergeAndPreload)
{
    Ctx c(kSaxpy, paperMachine());
    Loop vec = transformLoop(c.loop(), c.module.arrays, c.va,
                             c.partitionAll(), c.machine);
    int merges = 0;
    for (const Operation &op : vec.ops)
        merges += op.opcode == Opcode::VMerge;
    // Two loads + one store, each with a merge.
    EXPECT_EQ(merges, 3);
    EXPECT_EQ(vec.preloads.size(), 3u);
    // Extra carried chains for the reuse registers.
    EXPECT_EQ(vec.carried.size(), 3u);
}

class MisalignedOffsets : public ::testing::TestWithParam<int>
{
};

TEST_P(MisalignedOffsets, LoadStoreEquivalence)
{
    int offset = GetParam();
    std::string text = strfmt(R"(
array X f64 300
array Y f64 300
loop t {
    livein a f64
    body {
        x = load X[i + %d]
        ax = fmul a x
        store Y[i + %d] = ax
    }
}
)",
                              offset, offset + 1);
    Ctx c(text.c_str(), paperMachine());
    Loop vec = transformLoop(c.loop(), c.module.arrays, c.va,
                             c.partitionAll(), c.machine);
    LiveEnv env;
    env["a"] = RtVal::scalarF(2.25);
    c.expectEquivalent(vec, 64, env);
}

INSTANTIATE_TEST_SUITE_P(Phases, MisalignedOffsets,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Transform, PartialPartitionInsertsTransfersOnce)
{
    Ctx c(kSaxpy, paperMachine());
    // Vectorize only the multiply: x crosses in, ax crosses out.
    std::vector<bool> part(static_cast<size_t>(c.loop().numOps()),
                           false);
    part[2] = true;   // ax = fmul a x
    Loop mixed = transformLoop(c.loop(), c.module.arrays, c.va, part,
                               c.machine);

    int s_stores = 0, v_loads = 0, v_stores = 0, s_loads = 0;
    for (const Operation &op : mixed.ops) {
        s_stores += op.opcode == Opcode::XferStoreS;
        v_loads += op.opcode == Opcode::XferLoadV;
        v_stores += op.opcode == Opcode::XferStoreV;
        s_loads += op.opcode == Opcode::XferLoadS;
    }
    EXPECT_EQ(s_stores, 2);   // x lanes in
    EXPECT_EQ(v_loads, 1);
    EXPECT_EQ(v_stores, 1);   // ax out, exactly once
    EXPECT_EQ(s_loads, 2);

    LiveEnv env;
    env["a"] = RtVal::scalarF(0.5);
    c.expectEquivalent(mixed, 64, env);
}

TEST(Transform, CarriedChainThreadsThroughReplicas)
{
    const char *text = R"(
array X f64 300
loop t {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        s1 = fadd s x
        store X[i] = s1
    }
    liveout s1
}
)";
    Ctx c(text, paperMachine());
    Loop unrolled = unrollLoop(c.loop(), c.module.arrays, c.machine);

    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.25);
    c.expectEquivalent(unrolled, 64, env);

    // The carried chain survives with its name and live-out naming.
    ASSERT_EQ(unrolled.carried.size(), 1u);
    EXPECT_EQ(unrolled.valueInfo(unrolled.carried[0].in).name, "s");
    ASSERT_EQ(unrolled.liveOuts.size(), 1u);
    EXPECT_EQ(unrolled.valueInfo(unrolled.liveOuts[0]).name, "s1");
}

TEST(Transform, LiveOutOfVectorizedValueExtractsLastLane)
{
    const char *text = R"(
array X f64 300
loop t {
    body {
        x = load X[i]
        y = fneg x
        store X[i] = y
    }
    liveout y
}
)";
    Machine mach = paperMachine();
    Ctx c(text, mach);
    Loop vec = transformLoop(c.loop(), c.module.arrays, c.va,
                             c.partitionAll(), mach);

    MemoryImage ref(c.module.arrays);
    ref.fillPattern(5);
    Expected<RunOutput> r =
        tryExecuteLoop(c.module.arrays, c.loop(), mach, ref, {}, 64);
    ASSERT_TRUE(r.ok()) << r.status().str();
    MemoryImage got(c.module.arrays);
    got.fillPattern(5);
    Expected<RunOutput> g =
        tryExecuteLoop(c.module.arrays, vec, mach, got, {}, 32);
    ASSERT_TRUE(g.ok()) << g.status().str();
    ASSERT_TRUE(g.value().liveOuts.count("y"));
    EXPECT_EQ(g.value().liveOuts.at("y"), r.value().liveOuts.at("y"));
}

TEST(Transform, DistanceVlCycleVectorizes)
{
    // a[i+4] = a[i] * c: vectorizable despite the carried memory
    // cycle (distance 4 >= VL).
    const char *text = R"(
array A f64 300
loop t {
    livein cc f64
    body {
        x = load A[i]
        y = fmul x cc
        store A[i + 4] = y
    }
}
)";
    Ctx c(text, paperMachine());
    EXPECT_TRUE(c.va.vectorizable[0]);
    Loop vec = transformLoop(c.loop(), c.module.arrays, c.va,
                             c.partitionAll(), c.machine);
    LiveEnv env;
    env["cc"] = RtVal::scalarF(0.5);
    c.expectEquivalent(vec, 64, env);
}

TEST(Transform, RejectsNonFrontendInput)
{
    Ctx c(kSaxpy, paperMachine());
    Loop vec = transformLoop(c.loop(), c.module.arrays, c.va,
                             c.partitionAll(), c.machine);
    // Transforming an already-transformed loop (with preloads) dies.
    DepGraph graph(c.module.arrays, vec, c.machine);
    VectAnalysis va2 =
        analyzeVectorizable(vec, graph, c.machine);
    std::vector<bool> none(static_cast<size_t>(vec.numOps()), false);
    EXPECT_DEATH(
        transformLoop(vec, c.module.arrays, va2, none, c.machine),
        "frontend");
}

TEST(Transform, IntegerLoopVectorizes)
{
    const char *text = R"(
array A i64 300
array B i64 300
loop t {
    livein k i64
    body {
        x = load A[i]
        y = iadd x k
        z = ishl y k
        store B[i] = z
    }
}
)";
    Ctx c(text, paperMachine());
    Loop vec = transformLoop(c.loop(), c.module.arrays, c.va,
                             c.partitionAll(), c.machine);
    LiveEnv env;
    env["k"] = RtVal::scalarI(3);
    c.expectEquivalent(vec, 64, env);

    bool has_viadd = false;
    for (const Operation &op : vec.ops)
        has_viadd = has_viadd || op.opcode == Opcode::VIAdd;
    EXPECT_TRUE(has_viadd);
}

} // anonymous namespace
} // namespace selvec
