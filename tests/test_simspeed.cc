/**
 * @file
 * Streaming-executor contract tests (ctest label `simspeed`,
 * DESIGN.md §12):
 *
 *  - randomized property: generated loops run pipelined on the
 *    streaming engine match the reference engine run on the same
 *    lowered loop (outputs, dynOps, exit state and memory), and an
 *    exit-free run takes the closed-form cycle count, across trip
 *    counts from degenerate to many times the rolling window; every
 *    ring-frame operand of the plan is ready exactly when its
 *    producer completes;
 *  - early-exit store suppression matches the reference at every
 *    exit position, including each rolling-window boundary;
 *  - carried-value chains (multi-hop and self-referential/cyclic)
 *    stay exact across ring wraparound;
 *  - the SELVEC_CHECK_SIM reference check passes a legal schedule and
 *    kills a run whose schedule breaks a memory dependence;
 *  - steady-state streaming execution performs zero heap
 *    allocations: a 2048-iteration run allocates exactly as much as
 *    a 512-iteration run.
 *
 * This binary links the counting allocator (counting_alloc.cc), which
 * replaces the global operator new, so these tests live apart from
 * selvec_tests.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/depgraph.hh"
#include "counting_alloc.hh"
#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "pipeline/lowering.hh"
#include "pipeline/modsched.hh"
#include "sim/execplan.hh"
#include "sim/executor.hh"
#include "support/checkmode.hh"
#include "support/random.hh"
#include "workloads/generator.hh"

namespace selvec
{
namespace
{

/** Completion of an exit-free pipelined run: the last body issues
 *  (n_body - 1) * II cycles after the first and drains in
 *  max_op(time + latency). */
int64_t
closedFormCycles(const Loop &loop, const ModuloSchedule &schedule,
                 const Machine &machine, int64_t n_body)
{
    if (n_body == 0)
        return 0;
    int64_t span = 0;
    for (OpId id = 0; id < loop.numOps(); ++id) {
        span = std::max(span, schedule.time[static_cast<size_t>(id)] +
                                  machine.latency(loop.op(id).opcode));
    }
    return (n_body - 1) * schedule.ii + span;
}

/** Run `loop` pipelined on the streaming engine and sequentially on
 *  the reference engine, each from a copy of `initial`, and assert
 *  every observable and the final memory identical and an exit-free
 *  run's cycles equal to the closed form. Returns the streaming
 *  output for further assertions. */
RunOutput
runAgainstReference(const ArrayTable &arrays, const Loop &loop,
                    const ModuloSchedule &schedule,
                    const Machine &machine, const LiveEnv &live_ins,
                    int64_t n_body, const MemoryImage &initial,
                    const ExecPlan *plan = nullptr)
{
    MemoryImage stream_mem = initial;
    MemoryImage ref_mem = initial;
    Expected<RunOutput> stream =
        tryExecuteLoop(arrays, loop, machine, stream_mem, live_ins,
                       n_body, 0, &schedule, {}, plan);
    Expected<RunOutput> ref = tryExecuteLoop(
        arrays, loop, machine, ref_mem, live_ins, n_body);
    EXPECT_TRUE(stream.ok()) << stream.status().str();
    EXPECT_TRUE(ref.ok()) << ref.status().str();
    if (!stream.ok() || !ref.ok())
        return RunOutput{};
    const RunOutput &out = stream.value();
    EXPECT_EQ(out.bodyIterations, ref.value().bodyIterations);
    EXPECT_EQ(out.exited, ref.value().exited);
    EXPECT_EQ(out.exitOrig, ref.value().exitOrig);
    EXPECT_EQ(out.dynOps, ref.value().dynOps);
    EXPECT_EQ(out.liveOuts, ref.value().liveOuts);
    EXPECT_EQ(out.carriedFinal, ref.value().carriedFinal);
    EXPECT_EQ(stream_mem.diff(ref_mem), "");
    if (!out.exited) {
        EXPECT_EQ(out.cycles,
                  closedFormCycles(loop, schedule, machine, n_body));
    }
    return stream.takeValue();
}

/** runAgainstReference from a pattern-filled image. */
RunOutput
runAgainstReference(const ArrayTable &arrays, const Loop &loop,
                    const ModuloSchedule &schedule,
                    const Machine &machine, const LiveEnv &live_ins,
                    int64_t n_body, uint64_t pattern,
                    const ExecPlan *plan = nullptr)
{
    MemoryImage initial(arrays);
    initial.fillPattern(pattern);
    return runAgainstReference(arrays, loop, schedule, machine,
                               live_ins, n_body, initial, plan);
}

// ---------------------------------------------------------------------
// Randomized property: streaming == reference over generated loops.

TEST(SimDiff, GeneratedLoopsMatchDenseAcrossTripCounts)
{
    Machine machine = paperMachine();
    int compiled = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(0xD1FF'0000ULL + seed);
        GeneratorOptions options;
        GeneratedLoop gen = generateLoop(rng, options);
        ArrayTable arrays = gen.module.arrays;
        Expected<CompiledProgram> program = tryCompileLoop(
            gen.loop(), arrays, machine, Technique::ModuloOnly);
        if (!program.ok())
            continue;
        ++compiled;
        const CompiledLoop &cl = program.value().loops.front();
        ExecPlan plan =
            buildExecPlan(cl.main, cl.mainSchedule, machine);
        // The readiness the streaming engine asserts at every ring
        // read: a Frame operand completes when the last op defining
        // its terminal value does.
        for (const PlanOperand &po : plan.operands) {
            if (po.kind != PlanOperand::Kind::Frame)
                continue;
            OpId def = kNoOp;
            for (OpId id = 0; id < cl.main.numOps(); ++id) {
                if (cl.main.op(id).dest == po.value)
                    def = id;
            }
            ASSERT_NE(def, kNoOp) << "seed " << seed;
            EXPECT_EQ(po.readyBase,
                      cl.mainSchedule.time[static_cast<size_t>(def)] +
                          machine.latency(cl.main.op(def).opcode))
                << "seed " << seed;
        }
        // Degenerate trips, trips inside one window, and trips many
        // windows past wraparound.
        for (int64_t n_body : {int64_t{0}, int64_t{1}, int64_t{2},
                               int64_t{7}, int64_t{31},
                               options.maxTrip / cl.coverage}) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " n_body " << n_body);
            runAgainstReference(arrays, cl.main, cl.mainSchedule,
                                machine, gen.liveIns, n_body, seed,
                                &plan);
        }
    }
    // The generator and ModuloOnly are reliable enough that a
    // mostly-skipped sweep means the property test is not testing.
    EXPECT_GE(compiled, 20);
}

// ---------------------------------------------------------------------
// Early exit: suppression must match the reference at every window
// boundary.

const char *kEarlyExitStores = R"(
array A f64 64
array B f64 64
loop cut {
    livein lim f64
    body {
        x = load A[i]
        store B[i] = x
        c = fcmplt lim x
        exitif c
    }
}
)";

TEST(SimDiff, EarlyExitSuppressionAtEveryWindowBoundary)
{
    Module m = parseLirOrDie(kEarlyExitStores);
    Machine machine = paperMachine();
    Loop lowered = lowerForScheduling(m.loops[0], machine);
    DepGraph graph(m.arrays, lowered, machine);
    ScheduleResult sr = moduloSchedule(lowered, graph, machine);
    ASSERT_TRUE(sr.ok);
    ExecPlan plan = buildExecPlan(lowered, sr.schedule, machine);
    // The scan must cross several ring wraparounds to mean anything.
    ASSERT_LT(plan.windowFrames, 16);

    LiveEnv env;
    env["lim"] = RtVal::scalarF(5.0);
    for (int64_t exit_at = 0; exit_at < 48; ++exit_at) {
        SCOPED_TRACE(testing::Message() << "exit at " << exit_at);
        MemoryImage initial(m.arrays);
        for (int i = 0; i < 64; ++i)
            initial.storeF(0, i, i == exit_at ? 9.0 : 1.0);
        RunOutput out =
            runAgainstReference(m.arrays, lowered, sr.schedule,
                                machine, env, 64, initial, &plan);

        // The sequential semantics, asserted absolutely: stores
        // 0..exit_at committed, everything later suppressed.
        ASSERT_TRUE(out.exited);
        EXPECT_EQ(out.exitOrig, exit_at);
        EXPECT_EQ(out.dynOps[static_cast<size_t>(OpClass::MemStore)],
                  exit_at + 1);
    }
}

// ---------------------------------------------------------------------
// Carried chains across ring wraparound.

const char *kFibonacci = R"(
array A f64 16
loop fib {
    livein p0 f64
    livein q0 f64
    carried p f64 init p0 update x
    carried q f64 init q0 update p
    body {
        x = fadd p q
    }
    liveout x
}
)";

TEST(SimDiff, MultiHopCarriedChainAcrossRingWraparound)
{
    Module m = parseLirOrDie(kFibonacci);
    Machine machine = paperMachine();
    Loop lowered = lowerForScheduling(m.loops[0], machine);
    DepGraph graph(m.arrays, lowered, machine);
    ScheduleResult sr = moduloSchedule(lowered, graph, machine);
    ASSERT_TRUE(sr.ok);

    LiveEnv env;
    env["p0"] = RtVal::scalarF(1.0);
    env["q0"] = RtVal::scalarF(0.0);
    // Far past any plausible window: the q -> p hop must read frames
    // that wrapped many times. Fibonacci in doubles is exact to F_78.
    RunOutput out = runAgainstReference(m.arrays, lowered, sr.schedule,
                                        machine, env, 70, 1);
    double p = 1.0, q = 0.0, x = 0.0;
    for (int i = 0; i < 70; ++i) {
        x = p + q;
        q = p;
        p = x;
    }
    EXPECT_DOUBLE_EQ(out.liveOuts.at("x").laneF(0), x);
    EXPECT_DOUBLE_EQ(out.carriedFinal.at("p").laneF(0), p);
    EXPECT_DOUBLE_EQ(out.carriedFinal.at("q").laneF(0), q);
}

const char *kCyclicCarried = R"(
array A f64 256
loop hold {
    livein c0 f64
    livein s0 f64
    carried c f64 init c0 update c
    carried s f64 init s0 update s1
    body {
        x = load A[i]
        y = fmul x c
        s1 = fadd s y
    }
    liveout s1
}
)";

TEST(SimDiff, SelfReferentialCarriedValueIsExact)
{
    Module m = parseLirOrDie(kCyclicCarried);
    Machine machine = paperMachine();
    Loop lowered = lowerForScheduling(m.loops[0], machine);
    DepGraph graph(m.arrays, lowered, machine);
    ScheduleResult sr = moduloSchedule(lowered, graph, machine);
    ASSERT_TRUE(sr.ok);

    LiveEnv env;
    env["c0"] = RtVal::scalarF(3.0);
    env["s0"] = RtVal::scalarF(0.0);
    RunOutput out = runAgainstReference(m.arrays, lowered, sr.schedule,
                                        machine, env, 200, 5);
    // c never changes: the run is sum(A[i]) * 3.
    MemoryImage probe(m.arrays);
    probe.fillPattern(5);
    double sum = 0.0;
    for (int i = 0; i < 200; ++i)
        sum += probe.loadF(0, i) * 3.0;
    EXPECT_DOUBLE_EQ(out.liveOuts.at("s1").laneF(0), sum);
    EXPECT_DOUBLE_EQ(out.carriedFinal.at("c").laneF(0), 3.0);
}

// ---------------------------------------------------------------------
// The SELVEC_CHECK_SIM reference check: it must fire on a schedule the
// streaming engine runs without complaint. Lowering II to 1 keeps
// every register dependence (kernel times are unchanged) but lets
// iteration j + 1 load A[j + 1] before iteration j stores it.

const char *kShiftedStore = R"(
array A f64 64
loop shift {
    livein c f64
    body {
        x = load A[i]
        y = fadd x c
        store A[i + 1] = y
    }
}
)";

TEST(SimCheckDeathTest, BrokenMemoryDependenceAborts)
{
    Module m = parseLirOrDie(kShiftedStore);
    Machine machine = paperMachine();
    Loop lowered = lowerForScheduling(m.loops[0], machine);
    DepGraph graph(m.arrays, lowered, machine);
    ScheduleResult sr = moduloSchedule(lowered, graph, machine);
    ASSERT_TRUE(sr.ok);
    // The store -> load recurrence is what holds II above 1.
    ASSERT_GT(sr.schedule.ii, 1);

    LiveEnv env;
    env["c"] = RtVal::scalarF(0.5);
    auto run = [&](const ModuloSchedule &schedule) {
        MemoryImage mem(m.arrays);
        mem.fillPattern(1);
        return tryExecuteLoop(m.arrays, lowered, machine, mem, env, 32,
                              0, &schedule);
    };

    bool prior = checkSimEnabled();
    setCheckSim(true);
    Expected<RunOutput> good = run(sr.schedule);
    setCheckSim(prior);
    ASSERT_TRUE(good.ok()) << good.status().str();
    EXPECT_EQ(good.value().bodyIterations, 32);

    ModuloSchedule broken = sr.schedule;
    broken.ii = 1;
    EXPECT_DEATH(
        {
            setCheckSim(true);
            run(broken);
        },
        "SELVEC_CHECK_SIM: loop '.*': memory diverges");
}

// ---------------------------------------------------------------------
// The memory contract: steady state allocates nothing, so a run's
// allocation count is independent of its trip count.

const char *kDotLoop = R"(
array X f64 4096
loop dot {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        s1 = fadd s x
    }
    liveout s1
}
)";

TEST(SimAllocation, SteadyStateIsAllocationFree)
{
    Module m = parseLirOrDie(kDotLoop);
    Machine machine = paperMachine();
    Loop lowered = lowerForScheduling(m.loops[0], machine);
    DepGraph graph(m.arrays, lowered, machine);
    ScheduleResult sr = moduloSchedule(lowered, graph, machine);
    ASSERT_TRUE(sr.ok);
    ExecPlan plan = buildExecPlan(lowered, sr.schedule, machine);

    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);

    // The reference check copies memory and re-runs the loop; it must
    // be off for the count to measure the streaming engine alone.
    bool prior = checkSimEnabled();
    setCheckSim(false);

    auto countRun = [&](int64_t n_body) {
        MemoryImage mem(m.arrays);
        mem.fillPattern(1);
        uint64_t before = countedAllocations();
        Expected<RunOutput> out =
            tryExecuteLoop(m.arrays, lowered, machine, mem, env, n_body,
                           0, &sr.schedule, ExecLimits{}, &plan);
        uint64_t after = countedAllocations();
        EXPECT_TRUE(out.ok()) << out.status().str();
        if (out.ok()) {
            EXPECT_EQ(out.value().bodyIterations, n_body);
        }
        return after - before;
    };

    // Warm-up run: first-touch allocations (stats registry nodes,
    // internal caches) must not skew the comparison.
    countRun(512);
    uint64_t small = countRun(512);
    uint64_t large = countRun(2048);
    EXPECT_EQ(small, large)
        << "a 4x longer run allocated " << (large - small)
        << " more times: the steady state is not allocation-free";

    setCheckSim(prior);
}

} // anonymous namespace
} // namespace selvec
