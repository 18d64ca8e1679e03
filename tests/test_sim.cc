/**
 * @file
 * Unit tests for the simulator: memory image, per-opcode semantics,
 * and the loop execution engine in both modes.
 */

#include <gtest/gtest.h>

#include "analysis/depgraph.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "pipeline/lowering.hh"
#include "pipeline/modsched.hh"
#include "sim/executor.hh"
#include "sim/semantics.hh"

namespace selvec
{
namespace
{

// ------------------------------------------------------------- memimage

TEST(MemImage, StoreLoadRoundTrip)
{
    ArrayTable arrays;
    ArrayId f = arrays.add(ArrayInfo{"F", Type::F64, 16, false, 2});
    ArrayId i = arrays.add(ArrayInfo{"I", Type::I64, 16, false, 2});
    MemoryImage mem(arrays);
    mem.storeF(f, 3, 1.5);
    mem.storeI(i, 5, -42);
    EXPECT_DOUBLE_EQ(mem.loadF(f, 3), 1.5);
    EXPECT_EQ(mem.loadI(i, 5), -42);
}

TEST(MemImage, GuardReadsAllowedStoresNot)
{
    ArrayTable arrays;
    ArrayId f = arrays.add(ArrayInfo{"F", Type::F64, 16, false, 2});
    MemoryImage mem(arrays);
    EXPECT_DOUBLE_EQ(mem.loadF(f, -2), 0.0);
    EXPECT_DOUBLE_EQ(mem.loadF(f, 17), 0.0);
    EXPECT_DEATH(mem.storeF(f, -1, 1.0), "out of bounds");
    EXPECT_DEATH(mem.storeF(f, 16, 1.0), "out of bounds");
}

TEST(MemImage, DiffFindsFirstMismatch)
{
    ArrayTable arrays;
    arrays.add(ArrayInfo{"F", Type::F64, 16, false, 2});
    MemoryImage a(arrays), b(arrays);
    a.fillPattern(1);
    b.fillPattern(1);
    EXPECT_EQ(a.diff(b), "");
    b.storeF(0, 7, 123.0);
    EXPECT_NE(a.diff(b), "");

    // Doubles that agree to six digits still print apart.
    MemoryImage c(arrays), d(arrays);
    c.storeF(0, 2, 1.0);
    d.storeF(0, 2, 1.0000001);
    EXPECT_EQ(c.diff(d), "F[2]: 1 vs 1.0000001000000001");

    // Integer elements print as integers, not as reinterpreted
    // doubles.
    ArrayTable ints;
    ints.add(ArrayInfo{"I", Type::I64, 16, false, 2});
    MemoryImage e(ints), f(ints);
    e.storeI(0, 3, 7);
    f.storeI(0, 3, 9);
    EXPECT_EQ(e.diff(f), "I[3]: 7 vs 9");
}

TEST(MemImage, DiffIgnoresSynthesizedArrays)
{
    ArrayTable arrays;
    arrays.add(ArrayInfo{"F", Type::F64, 16, false, 2});
    arrays.add(ArrayInfo{"T", Type::F64, 16, true, 2});
    MemoryImage a(arrays), b(arrays);
    b.storeF(1, 3, 9.0);   // synthesized array differs
    EXPECT_EQ(a.diff(b), "");
}

TEST(MemImage, FillPatternDeterministic)
{
    ArrayTable arrays;
    arrays.add(ArrayInfo{"F", Type::F64, 64, false, 2});
    MemoryImage a(arrays), b(arrays);
    a.fillPattern(7);
    b.fillPattern(7);
    EXPECT_EQ(a.diff(b), "");
    b.fillPattern(8);
    EXPECT_NE(a.diff(b), "");
}

// ------------------------------------------------------------ semantics

class OpSemantics : public ::testing::Test
{
  protected:
    OpSemantics()
    {
        farr = arrays.add(ArrayInfo{"F", Type::F64, 64, false, 2});
        mem = std::make_unique<MemoryImage>(arrays);
    }

    RtVal
    eval(Opcode opcode, std::vector<RtVal> operands, int lane = 0)
    {
        Operation op;
        op.opcode = opcode;
        op.lane = lane;
        op.srcs.assign(operands.size(), 0);
        return evalOp(op, operands, 0, 2, *mem);
    }

    ArrayTable arrays;
    ArrayId farr;
    std::unique_ptr<MemoryImage> mem;
};

TEST_F(OpSemantics, ScalarArithmetic)
{
    EXPECT_DOUBLE_EQ(eval(Opcode::FAdd, {RtVal::scalarF(1.5),
                                         RtVal::scalarF(2.0)})
                         .laneF(0),
                     3.5);
    EXPECT_DOUBLE_EQ(eval(Opcode::FSub, {RtVal::scalarF(1.0),
                                         RtVal::scalarF(0.25)})
                         .laneF(0),
                     0.75);
    EXPECT_DOUBLE_EQ(eval(Opcode::FMax, {RtVal::scalarF(-1.0),
                                         RtVal::scalarF(2.0)})
                         .laneF(0),
                     2.0);
    EXPECT_DOUBLE_EQ(eval(Opcode::FAbs, {RtVal::scalarF(-3.0)}).laneF(0),
                     3.0);
    EXPECT_EQ(eval(Opcode::IShl, {RtVal::scalarI(3), RtVal::scalarI(2)})
                  .laneI(0),
              12);
    EXPECT_EQ(eval(Opcode::IXor, {RtVal::scalarI(6), RtVal::scalarI(3)})
                  .laneI(0),
              5);
}

TEST_F(OpSemantics, IntegerArithmeticWraps)
{
    // Simulated integers are two's complement: overflow wraps.
    const int64_t big = 12545225621776;
    const int64_t wrapped = 9191786885577515264;   // big * big mod 2^64
    EXPECT_EQ(eval(Opcode::IMul, {RtVal::scalarI(big),
                                  RtVal::scalarI(big)})
                  .laneI(0),
              wrapped);
    EXPECT_EQ(eval(Opcode::VIMul, {RtVal::vectorI({big, 3}),
                                   RtVal::vectorI({big, 5})})
                  .laneI(0),
              wrapped);
    EXPECT_EQ(eval(Opcode::INeg, {RtVal::scalarI(INT64_MIN)}).laneI(0),
              INT64_MIN);
    EXPECT_EQ(eval(Opcode::VINeg, {RtVal::vectorI({INT64_MIN, 4})})
                  .laneI(0),
              INT64_MIN);
    EXPECT_EQ(eval(Opcode::IAdd, {RtVal::scalarI(INT64_MAX),
                                  RtVal::scalarI(1)})
                  .laneI(0),
              INT64_MIN);
    EXPECT_EQ(eval(Opcode::ISub, {RtVal::scalarI(INT64_MIN),
                                  RtVal::scalarI(1)})
                  .laneI(0),
              INT64_MAX);
}

TEST_F(OpSemantics, FmaMatchesMulAdd)
{
    RtVal a = RtVal::scalarF(1.5), b = RtVal::scalarF(-2.0),
          c = RtVal::scalarF(0.5);
    RtVal fma = eval(Opcode::FMulAdd, {a, b, c});
    EXPECT_DOUBLE_EQ(fma.laneF(0), 1.5 * -2.0 + 0.5);
}

TEST_F(OpSemantics, SafeIntegerDivision)
{
    EXPECT_EQ(safeIDiv(7, 2), 3);
    EXPECT_EQ(safeIDiv(7, 0), 0);
    EXPECT_EQ(safeIDiv(INT64_MIN, -1), 0);
    EXPECT_EQ(eval(Opcode::IDiv, {RtVal::scalarI(9), RtVal::scalarI(0)})
                  .laneI(0),
              0);
}

TEST_F(OpSemantics, VectorLanewise)
{
    RtVal a = RtVal::vectorF({1.0, 2.0});
    RtVal b = RtVal::vectorF({10.0, 20.0});
    RtVal sum = eval(Opcode::VFAdd, {a, b});
    EXPECT_DOUBLE_EQ(sum.laneF(0), 11.0);
    EXPECT_DOUBLE_EQ(sum.laneF(1), 22.0);

    RtVal ia = RtVal::vectorI({3, -4});
    RtVal ib = RtVal::vectorI({5, 4});
    RtVal imin = eval(Opcode::VIMin, {ia, ib});
    EXPECT_EQ(imin.laneI(0), 3);
    EXPECT_EQ(imin.laneI(1), -4);
}

TEST_F(OpSemantics, VMergeWindows)
{
    RtVal a = RtVal::vectorF({1.0, 2.0});
    RtVal b = RtVal::vectorF({3.0, 4.0});
    RtVal w0 = eval(Opcode::VMerge, {a, b}, 0);
    EXPECT_DOUBLE_EQ(w0.laneF(0), 1.0);
    EXPECT_DOUBLE_EQ(w0.laneF(1), 2.0);
    RtVal w1 = eval(Opcode::VMerge, {a, b}, 1);
    EXPECT_DOUBLE_EQ(w1.laneF(0), 2.0);
    EXPECT_DOUBLE_EQ(w1.laneF(1), 3.0);
    RtVal w2 = eval(Opcode::VMerge, {a, b}, 2);
    EXPECT_DOUBLE_EQ(w2.laneF(0), 3.0);
    EXPECT_DOUBLE_EQ(w2.laneF(1), 4.0);
}

TEST_F(OpSemantics, SplatPickAndLaneMoves)
{
    RtVal s = eval(Opcode::VSplat, {RtVal::scalarF(7.0)});
    EXPECT_DOUBLE_EQ(s.laneF(0), 7.0);
    EXPECT_DOUBLE_EQ(s.laneF(1), 7.0);

    RtVal v = RtVal::vectorF({5.0, 6.0});
    EXPECT_DOUBLE_EQ(eval(Opcode::VPick, {v}, 1).laneF(0), 6.0);
    EXPECT_DOUBLE_EQ(eval(Opcode::MovVS, {v}, 0).laneF(0), 5.0);

    Operation mv;
    mv.opcode = Opcode::MovSV;
    mv.lane = 1;
    mv.srcs = {kNoValue, 0};
    RtVal ins = evalOp(mv, {RtVal{}, RtVal::scalarF(9.0)}, 0, 2, *mem);
    EXPECT_DOUBLE_EQ(ins.laneF(1), 9.0);
}

TEST_F(OpSemantics, TransferChannels)
{
    RtVal chan = eval(Opcode::XferStoreS, {RtVal::scalarF(4.5)});
    EXPECT_EQ(chan.type, Type::Chan);
    RtVal back = eval(Opcode::XferLoadS, {chan});
    EXPECT_DOUBLE_EQ(back.laneF(0), 4.5);

    RtVal vchan =
        eval(Opcode::XferStoreV, {RtVal::vectorF({1.0, 2.0})});
    RtVal lane1 = eval(Opcode::XferLoadS, {vchan}, 1);
    EXPECT_DOUBLE_EQ(lane1.laneF(0), 2.0);

    RtVal gather = eval(Opcode::XferLoadV, {chan, chan});
    EXPECT_DOUBLE_EQ(gather.laneF(0), 4.5);
    EXPECT_DOUBLE_EQ(gather.laneF(1), 4.5);
}

TEST_F(OpSemantics, MemoryOpsUseIterationIndex)
{
    Operation st;
    st.opcode = Opcode::Store;
    st.srcs = {0};
    st.ref = AffineRef{farr, 2, 1};
    evalOp(st, {RtVal::scalarF(8.0)}, 5, 2, *mem);
    EXPECT_DOUBLE_EQ(mem->loadF(farr, 11), 8.0);

    Operation ld;
    ld.opcode = Opcode::VLoad;
    ld.ref = AffineRef{farr, 2, 0};
    mem->storeF(farr, 10, 1.0);
    RtVal v = evalOp(ld, {}, 5, 2, *mem);
    EXPECT_DOUBLE_EQ(v.laneF(0), 1.0);
    EXPECT_DOUBLE_EQ(v.laneF(1), 8.0);
}

// -------------------------------------------------------------- engine

const char *kAccum = R"(
array A f64 128
loop accum {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load A[i]
        s1 = fadd s x
    }
    liveout s1
}
)";

TEST(Engine, SequentialAccumulation)
{
    Module m = parseLirOrDie(kAccum);
    Machine mach = paperMachine();
    MemoryImage mem(m.arrays);
    for (int i = 0; i < 8; ++i)
        mem.storeF(0, i, static_cast<double>(i));
    LiveEnv env;
    env["s0"] = RtVal::scalarF(100.0);
    Expected<RunOutput> run =
        tryExecuteLoop(m.arrays, m.loops[0], mach, mem, env, 8);
    ASSERT_TRUE(run.ok()) << run.status().str();
    const RunOutput &out = run.value();
    EXPECT_DOUBLE_EQ(out.liveOuts.at("s1").laneF(0), 128.0);
    EXPECT_DOUBLE_EQ(out.carriedFinal.at("s").laneF(0), 128.0);
}

TEST(Engine, ZeroIterations)
{
    Module m = parseLirOrDie(kAccum);
    Machine mach = paperMachine();
    MemoryImage mem(m.arrays);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(7.0);
    Expected<RunOutput> run =
        tryExecuteLoop(m.arrays, m.loops[0], mach, mem, env, 0);
    ASSERT_TRUE(run.ok()) << run.status().str();
    const RunOutput &out = run.value();
    // The continuation state is the init; body live-outs are absent.
    EXPECT_DOUBLE_EQ(out.carriedFinal.at("s").laneF(0), 7.0);
    EXPECT_FALSE(out.liveOuts.count("s1"));
    EXPECT_EQ(out.cycles, 0);
}

TEST(Engine, BaseOffsetsMemoryAccesses)
{
    Module m = parseLirOrDie(kAccum);
    Machine mach = paperMachine();
    MemoryImage mem(m.arrays);
    for (int i = 0; i < 16; ++i)
        mem.storeF(0, i, static_cast<double>(i));
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);
    // Iterations 8..11 (base 8).
    Expected<RunOutput> run =
        tryExecuteLoop(m.arrays, m.loops[0], mach, mem, env, 4, 8);
    ASSERT_TRUE(run.ok()) << run.status().str();
    const RunOutput &out = run.value();
    EXPECT_DOUBLE_EQ(out.liveOuts.at("s1").laneF(0),
                     8.0 + 9.0 + 10.0 + 11.0);
}

TEST(Engine, UnboundLiveInDies)
{
    Module m = parseLirOrDie(kAccum);
    Machine mach = paperMachine();
    MemoryImage mem(m.arrays);
    EXPECT_DEATH(tryExecuteLoop(m.arrays, m.loops[0], mach, mem, {}, 4),
                 "unbound");
}

TEST(Engine, PipelinedMatchesSequentialAndCountsCycles)
{
    Module m = parseLirOrDie(kAccum);
    Machine mach = paperMachine();
    Loop lowered = lowerForScheduling(m.loops[0], mach);
    DepGraph graph(m.arrays, lowered, mach);
    ScheduleResult sr = moduloSchedule(lowered, graph, mach);
    ASSERT_TRUE(sr.ok);

    MemoryImage seq_mem(m.arrays), pipe_mem(m.arrays);
    seq_mem.fillPattern(3);
    pipe_mem.fillPattern(3);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(1.0);

    Expected<RunOutput> seq_run =
        tryExecuteLoop(m.arrays, lowered, mach, seq_mem, env, 32);
    ASSERT_TRUE(seq_run.ok()) << seq_run.status().str();
    Expected<RunOutput> pipe_run = tryExecuteLoop(
        m.arrays, lowered, mach, pipe_mem, env, 32, 0, &sr.schedule);
    ASSERT_TRUE(pipe_run.ok()) << pipe_run.status().str();
    const RunOutput &seq = seq_run.value();
    const RunOutput &pipe = pipe_run.value();

    EXPECT_EQ(seq.liveOuts.at("s1"), pipe.liveOuts.at("s1"));
    EXPECT_EQ(pipe_mem.diff(seq_mem), "");
    // 32 iterations at the recurrence-bound II of 4 plus fill/drain.
    EXPECT_GE(pipe.cycles, 32 * 4);
    EXPECT_LT(pipe.cycles, 32 * 4 + 64);
    EXPECT_EQ(seq.cycles, 0);
}

TEST(Engine, SplatInsBroadcast)
{
    ParseResult pr = parseLir(R"(
array A f64 64
loop t cover 2 {
    livein c f64
    splatin cv c
    body {
        x = vload A[2i]
        y = vfmul x cv
        vstore A[2i + 32] = y
    }
}
)");
    ASSERT_TRUE(pr.ok) << pr.error;
    Machine mach = paperMachine();
    MemoryImage mem(pr.module.arrays);
    mem.storeF(0, 0, 2.0);
    mem.storeF(0, 1, 3.0);
    LiveEnv env;
    env["c"] = RtVal::scalarF(10.0);
    ASSERT_TRUE(tryExecuteLoop(pr.module.arrays, pr.module.loops[0],
                               mach, mem, env, 1)
                    .ok());
    EXPECT_DOUBLE_EQ(mem.loadF(0, 32), 20.0);
    EXPECT_DOUBLE_EQ(mem.loadF(0, 33), 30.0);
}

TEST(Engine, DynamicOpCountsPerClass)
{
    Module m = parseLirOrDie(R"(
array A f64 64
array B f64 64
loop t {
    body {
        x = load A[i]
        y = fmul x x
        store B[i] = y
    }
}
)");
    Machine mach = paperMachine();
    Loop lowered = lowerForScheduling(m.loops[0], mach);
    MemoryImage mem(m.arrays);
    Expected<RunOutput> run =
        tryExecuteLoop(m.arrays, lowered, mach, mem, {}, 8);
    ASSERT_TRUE(run.ok()) << run.status().str();
    const RunOutput &out = run.value();
    EXPECT_EQ(out.dynOps[static_cast<size_t>(OpClass::MemLoad)], 8);
    EXPECT_EQ(out.dynOps[static_cast<size_t>(OpClass::MemStore)], 8);
    EXPECT_EQ(out.dynOps[static_cast<size_t>(OpClass::FpMul)], 8);
    EXPECT_EQ(out.dynOps[static_cast<size_t>(OpClass::IntAlu)], 8);
    EXPECT_EQ(out.dynOps[static_cast<size_t>(OpClass::BranchCls)], 8);
    EXPECT_EQ(out.totalDynOps(), 5 * 8);
}

TEST(Engine, SuppressedSpeculativeStoresAreNotCounted)
{
    Module m = parseLirOrDie(R"(
array A f64 64
array B f64 64
loop t {
    livein lim f64
    body {
        x = load A[i]
        store B[i] = x
        c = fcmplt lim x
        exitif c
    }
}
)");
    Machine mach = paperMachine();
    MemoryImage mem(m.arrays);
    for (int i = 0; i < 20; ++i)
        mem.storeF(0, i, i == 5 ? 9.0 : 1.0);
    LiveEnv env;
    env["lim"] = RtVal::scalarF(5.0);
    Expected<RunOutput> run =
        tryExecuteLoop(m.arrays, m.loops[0], mach, mem, env, 20);
    ASSERT_TRUE(run.ok()) << run.status().str();
    const RunOutput &out = run.value();
    ASSERT_TRUE(out.exited);
    EXPECT_EQ(out.exitOrig, 5);
    // Stores 0..5 committed and counted; later ones suppressed.
    EXPECT_EQ(out.dynOps[static_cast<size_t>(OpClass::MemStore)], 6);
    // Speculative loads still execute (and count).
    EXPECT_EQ(out.dynOps[static_cast<size_t>(OpClass::MemLoad)], 20);
}

} // anonymous namespace
} // namespace selvec
