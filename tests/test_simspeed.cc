/**
 * @file
 * Streaming-executor contract tests (ctest label `simspeed`,
 * DESIGN.md §12):
 *
 *  - randomized property: generated loops run pipelined on the
 *    streaming engine and the dense event-list reference produce
 *    identical observables (outputs, dynOps, exit state) and
 *    identical memory, across trip counts from degenerate to many
 *    times the rolling window;
 *  - early-exit store suppression agrees between the engines at
 *    every exit position, including each rolling-window boundary;
 *  - carried-value chains (multi-hop and self-referential/cyclic)
 *    stay exact across ring wraparound;
 *  - the cycle watchdog trips with the identical structured status
 *    on both engines, for genuine trips and for the "sim.watchdog"
 *    fault site;
 *  - steady-state streaming execution performs zero heap
 *    allocations: a 2048-iteration run allocates exactly as much as
 *    a 512-iteration run.
 *
 * This binary overrides the global operator new to count allocations,
 * which is why these tests live apart from selvec_tests.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "analysis/depgraph.hh"
#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "pipeline/lowering.hh"
#include "pipeline/modsched.hh"
#include "sim/execplan.hh"
#include "sim/executor.hh"
#include "support/checkmode.hh"
#include "support/faultinject.hh"
#include "support/random.hh"
#include "workloads/generator.hh"

namespace
{

std::atomic<uint64_t> g_allocations{0};

} // anonymous namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace selvec
{
namespace
{

/** Every observable of a run, compared field by field. */
void
expectSameOutput(const RunOutput &stream, const RunOutput &dense)
{
    EXPECT_EQ(stream.bodyIterations, dense.bodyIterations);
    EXPECT_EQ(stream.cycles, dense.cycles);
    EXPECT_EQ(stream.exited, dense.exited);
    EXPECT_EQ(stream.exitOrig, dense.exitOrig);
    EXPECT_EQ(stream.dynOps, dense.dynOps);
    EXPECT_EQ(stream.liveOuts, dense.liveOuts);
    EXPECT_EQ(stream.carriedFinal, dense.carriedFinal);
}

/** Run `loop` pipelined on both engines from identical memory and
 *  assert every observable and the final memory identical. Returns
 *  the streaming output for further assertions. */
RunOutput
runBothEngines(const ArrayTable &arrays, const Loop &loop,
               const ModuloSchedule &schedule, const Machine &machine,
               const LiveEnv &live_ins, int64_t n_body,
               uint64_t pattern)
{
    MemoryImage stream_mem(arrays);
    stream_mem.fillPattern(pattern);
    MemoryImage dense_mem(arrays);
    dense_mem.fillPattern(pattern);

    Expected<RunOutput> stream =
        tryExecuteLoop(arrays, loop, machine, stream_mem, live_ins,
                       n_body, 0, &schedule);
    Expected<RunOutput> dense =
        tryExecuteLoopDense(arrays, loop, machine, dense_mem,
                            live_ins, n_body, 0, &schedule);
    EXPECT_TRUE(stream.ok()) << stream.status().str();
    EXPECT_TRUE(dense.ok()) << dense.status().str();
    if (!stream.ok() || !dense.ok())
        return RunOutput{};
    expectSameOutput(stream.value(), dense.value());
    EXPECT_EQ(stream_mem.diff(dense_mem), "");
    return stream.takeValue();
}

// ---------------------------------------------------------------------
// Randomized property: streaming == dense over generated loops.

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
        // Degenerate trips, trips inside one window, and trips many
        // windows past wraparound.
        for (int64_t n_body : {int64_t{0}, int64_t{1}, int64_t{2},
                               int64_t{7}, int64_t{31},
                               options.maxTrip / cl.coverage}) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " n_body " << n_body);
            runBothEngines(arrays, cl.main, cl.mainSchedule, machine,
                           gen.liveIns, n_body, seed);
        }
    }
    // The generator and ModuloOnly are reliable enough that a
    // mostly-skipped sweep means the property test is not testing.
    EXPECT_GE(compiled, 20);
}

// ---------------------------------------------------------------------
// Early exit: suppression must agree at every window boundary.

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
        MemoryImage stream_mem(m.arrays);
        MemoryImage dense_mem(m.arrays);
        for (MemoryImage *mem : {&stream_mem, &dense_mem})
            for (int i = 0; i < 64; ++i)
                mem->storeF(0, i, i == exit_at ? 9.0 : 1.0);

        Expected<RunOutput> stream =
            tryExecuteLoop(m.arrays, lowered, machine, stream_mem,
                           env, 64, 0, &sr.schedule, {}, &plan);
        Expected<RunOutput> dense =
            tryExecuteLoopDense(m.arrays, lowered, machine, dense_mem,
                                env, 64, 0, &sr.schedule);
        ASSERT_TRUE(stream.ok()) << stream.status().str();
        ASSERT_TRUE(dense.ok()) << dense.status().str();
        expectSameOutput(stream.value(), dense.value());
        EXPECT_EQ(stream_mem.diff(dense_mem), "");

        // The sequential semantics, asserted absolutely: stores
        // 0..exit_at committed, everything later suppressed.
        ASSERT_TRUE(stream.value().exited);
        EXPECT_EQ(stream.value().exitOrig, exit_at);
        EXPECT_EQ(stream.value()
                      .dynOps[static_cast<size_t>(OpClass::MemStore)],
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
    RunOutput out = runBothEngines(m.arrays, lowered, sr.schedule,
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
    RunOutput out = runBothEngines(m.arrays, lowered, sr.schedule,
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
// Watchdog parity: both engines trip with the identical status.

const char *kWatchdogLoop = R"(
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

TEST(SimWatchdog, GenuineTripIsIdenticalAcrossEngines)
{
    Module m = parseLirOrDie(kWatchdogLoop);
    Machine machine = paperMachine();
    Loop lowered = lowerForScheduling(m.loops[0], machine);
    DepGraph graph(m.arrays, lowered, machine);
    ScheduleResult sr = moduloSchedule(lowered, graph, machine);
    ASSERT_TRUE(sr.ok);

    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);
    ExecLimits limits;
    limits.maxCycles = 1;   // no pipeline finishes in one cycle

    MemoryImage stream_mem(m.arrays), dense_mem(m.arrays);
    stream_mem.fillPattern(1);
    dense_mem.fillPattern(1);
    Expected<RunOutput> stream =
        tryExecuteLoop(m.arrays, lowered, machine, stream_mem, env,
                       64, 0, &sr.schedule, limits);
    Expected<RunOutput> dense =
        tryExecuteLoopDense(m.arrays, lowered, machine, dense_mem,
                            env, 64, 0, &sr.schedule, limits);
    ASSERT_FALSE(stream.ok());
    ASSERT_FALSE(dense.ok());
    EXPECT_EQ(stream.status().code(), ErrorCode::WatchdogTripped);
    // Byte-identical structured status: same code, stage and message
    // (the fault-site parity the repro/replay pipeline depends on).
    EXPECT_EQ(stream.status().str(), dense.status().str());
}

TEST(SimWatchdog, FaultSiteTripsIdenticallyAcrossEngines)
{
    Module m = parseLirOrDie(kWatchdogLoop);
    Machine machine = paperMachine();
    Loop lowered = lowerForScheduling(m.loops[0], machine);
    DepGraph graph(m.arrays, lowered, machine);
    ScheduleResult sr = moduloSchedule(lowered, graph, machine);
    ASSERT_TRUE(sr.ok);

    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);
    ExecLimits limits;
    limits.watchdogFactor = 16;

    auto tripped = [&](bool dense_engine) {
        FaultPlan plan = parseFaultPlan("sim.watchdog:*").value();
        ScopedFaultPlan armed(plan);
        MemoryImage mem(m.arrays);
        mem.fillPattern(1);
        return dense_engine
                   ? tryExecuteLoopDense(m.arrays, lowered, machine,
                                         mem, env, 64, 0,
                                         &sr.schedule, limits)
                         .status()
                   : tryExecuteLoop(m.arrays, lowered, machine, mem,
                                    env, 64, 0, &sr.schedule, limits)
                         .status();
    };
    Status stream = tripped(false);
    Status dense = tripped(true);
    EXPECT_EQ(stream.code(), ErrorCode::WatchdogTripped);
    EXPECT_EQ(stream.str(), dense.str());
}

// ---------------------------------------------------------------------
// The memory contract: steady state allocates nothing, so a run's
// allocation count is independent of its trip count.

TEST(SimAllocation, SteadyStateIsAllocationFree)
{
    Module m = parseLirOrDie(kWatchdogLoop);
    Machine machine = paperMachine();
    Loop lowered = lowerForScheduling(m.loops[0], machine);
    DepGraph graph(m.arrays, lowered, machine);
    ScheduleResult sr = moduloSchedule(lowered, graph, machine);
    ASSERT_TRUE(sr.ok);
    ExecPlan plan = buildExecPlan(lowered, sr.schedule, machine);

    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);

    // The lockstep shadow allocates per instance by design; it must
    // be off for the count to measure the streaming engine alone.
    bool prior = checkSimEnabled();
    setCheckSim(false);

    auto countRun = [&](int64_t n_body) {
        MemoryImage mem(m.arrays);
        mem.fillPattern(1);
        uint64_t before =
            g_allocations.load(std::memory_order_relaxed);
        RunOutput out = executeLoop(m.arrays, lowered, machine, mem,
                                    env, n_body, 0, &sr.schedule,
                                    &plan);
        uint64_t after =
            g_allocations.load(std::memory_order_relaxed);
        EXPECT_EQ(out.bodyIterations, n_body);
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
