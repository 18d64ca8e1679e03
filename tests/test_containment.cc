/**
 * @file
 * Tests for the failure-containment contract (DESIGN.md §10):
 * deadlines and cooperative cancellation, knob validation, the
 * simulator cycle watchdog, per-loop suite quarantine with
 * byte-identical sibling reports, and replayable repro bundles.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "driver/evaluate.hh"
#include "driver/repro.hh"
#include "driver/reportjson.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "support/deadline.hh"
#include "support/faultinject.hh"
#include "workloads/workloads.hh"

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

/** Three independent data-parallel kernels over shared arrays: the
 *  quarantine demo's suite. Even trip counts mean ModuloOnly's
 *  cleanup loop never runs, so each loop's simulation is exactly one
 *  bounded pipelined run — fault-site hit counts stay predictable. */
const char *kTrioLir = R"(
array A f64 256
array B f64 256
array C f64 256

loop alpha {
    body {
        a = load A[i]
        b = load B[i]
        s = fadd a b
        store C[i] = s
    }
}

loop beta {
    body {
        a = load A[i]
        c = load C[i]
        p = fmul a c
        store B[i] = p
    }
}

loop gamma {
    body {
        b = load B[i]
        c = load C[i]
        d = fsub c b
        store A[i] = d
    }
}
)";

Suite
trioSuite()
{
    Suite suite;
    suite.name = "trio";
    suite.description = "three independent kernels";
    suite.module = parseLirOrDie(kTrioLir);
    for (int i = 0; i < 3; ++i) {
        WorkloadLoop wl;
        wl.loopIndex = i;
        wl.tripCount = 64;   // even: no cleanup-loop simulation
        wl.invocations = 1;
        suite.loops.push_back(wl);
    }
    return suite;
}

/** A scratch directory under the test temp root, wiped on entry. */
std::string
freshDir(const char *leaf)
{
    std::string dir = ::testing::TempDir() + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// ---------------------------------------------------------------------
// Deadline / CancelToken primitives.

TEST(Deadline, NeverIsUnlimited)
{
    Deadline d = Deadline::never();
    EXPECT_TRUE(d.unlimited());
    EXPECT_FALSE(d.expired());
    EXPECT_EQ(Deadline().unlimited(), true);
}

TEST(Deadline, AfterMsZeroIsAlreadyExpired)
{
    Deadline d = Deadline::afterMs(0);
    EXPECT_FALSE(d.unlimited());
    EXPECT_TRUE(d.expired());
    EXPECT_EQ(d.remainingMs(), 0);
}

TEST(Deadline, AfterMsLargeIsPending)
{
    Deadline d = Deadline::afterMs(60 * 1000);
    EXPECT_FALSE(d.unlimited());
    EXPECT_FALSE(d.expired());
    EXPECT_GT(d.remainingMs(), 0);
}

TEST(Deadline, SoonerPicksTheTighterBound)
{
    Deadline none = Deadline::never();
    Deadline loose = Deadline::afterMs(60 * 1000);
    Deadline tight = Deadline::afterMs(0);

    EXPECT_TRUE(Deadline::sooner(none, none).unlimited());
    EXPECT_FALSE(Deadline::sooner(none, loose).unlimited());
    EXPECT_TRUE(Deadline::sooner(tight, loose).expired());
    EXPECT_TRUE(Deadline::sooner(loose, tight).expired());
}

TEST(CancelToken, NullTokenNeverCancels)
{
    CancelToken t;
    EXPECT_FALSE(t.valid());
    EXPECT_FALSE(t.cancelled());
    t.requestCancel();   // no-op, must not crash
    EXPECT_FALSE(t.cancelled());
}

TEST(CancelToken, CopiesAliasTheSameFlag)
{
    CancelToken t = CancelToken::create();
    CancelToken copy = t;
    EXPECT_TRUE(copy.valid());
    EXPECT_FALSE(copy.cancelled());
    t.requestCancel();
    EXPECT_TRUE(copy.cancelled());
}

// ---------------------------------------------------------------------
// Ambient context: checkDeadline and ScopedDeadline.

TEST(DeadlineContext, UnarmedThreadIsFree)
{
    EXPECT_FALSE(deadlineArmed());
    EXPECT_TRUE(checkDeadline("test").ok());
}

TEST(DeadlineContext, ExpiredScopeTripsWithStage)
{
    {
        ScopedDeadline guard(Deadline::afterMs(0));
        EXPECT_TRUE(deadlineArmed());
        Status st = checkDeadline("kl-pass");
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code(), ErrorCode::DeadlineExceeded);
        EXPECT_EQ(st.stage(), "kl-pass");
    }
    EXPECT_FALSE(deadlineArmed());
    EXPECT_TRUE(checkDeadline("test").ok());
}

TEST(DeadlineContext, CancellationWinsOverDeadline)
{
    CancelToken token = CancelToken::create();
    token.requestCancel();
    ScopedDeadline guard(Deadline::afterMs(0), token);
    Status st = checkDeadline("batch");
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::Cancelled);
}

TEST(DeadlineContext, NestedScopeKeepsTheSoonerDeadline)
{
    ScopedDeadline outer(Deadline::afterMs(0));
    // An unlimited inner scope cannot loosen the outer bound.
    ScopedDeadline inner(Deadline::never());
    Status st = checkDeadline("inner");
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::DeadlineExceeded);
}

TEST(DeadlineContext, NestedScopeInheritsTheOuterToken)
{
    CancelToken token = CancelToken::create();
    token.requestCancel();
    ScopedDeadline outer(Deadline::never(), token);
    ScopedDeadline inner(Deadline::afterMs(60 * 1000));   // null token
    Status st = checkDeadline("inner");
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::Cancelled);
}

TEST(DeadlineContext, AdoptInstallsVerbatim)
{
    ScopedDeadline outer(Deadline::afterMs(0));
    ASSERT_FALSE(checkDeadline("outer").ok());
    {
        // Adopting an unarmed context clears the expired bound — the
        // verbatim path the pool workers rely on.
        ScopedDeadline adopted(ScopedDeadline::AdoptTag{},
                               DeadlineContext{});
        EXPECT_FALSE(deadlineArmed());
        EXPECT_TRUE(checkDeadline("worker").ok());
    }
    EXPECT_FALSE(checkDeadline("outer").ok());
}

// ---------------------------------------------------------------------
// Knob validation at the driver entry (negative values are nonsense;
// zero stays meaningful — a zero budget is "give up immediately").

TEST(OptionValidation, NegativeScheduleKnobsAreInvalidInput)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;

    ScheduleOptions broken[4];
    broken[0].budgetFactor = -1;
    broken[1].maxIiFactor = -2;
    broken[2].maxIiSlack = -3;
    broken[3].watchdogFactor = -4;
    for (const ScheduleOptions &so : broken) {
        DriverOptions options;
        options.scheduling = so;
        Expected<CompiledProgram> program = tryCompileLoop(
            module.loops.front(), arrays, toyMachine(),
            Technique::ModuloOnly, options);
        ASSERT_FALSE(program.ok());
        EXPECT_EQ(program.status().code(), ErrorCode::InvalidInput);
        EXPECT_EQ(program.status().stage(), "driver");
        EXPECT_NE(program.status().message().find(">= 0"),
                  std::string::npos)
            << program.status().str();
    }
}

TEST(OptionValidation, NegativePartitionIterationsAreInvalidInput)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    DriverOptions options;
    options.partition.maxIterations = -1;
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::Selective, options);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), ErrorCode::InvalidInput);
    EXPECT_EQ(program.status().stage(), "driver");
}

TEST(OptionValidation, ZeroWatchdogFactorIsAValidKnob)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    DriverOptions options;
    options.scheduling.watchdogFactor = 0;   // watchdog disabled
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly, options);
    EXPECT_TRUE(program.ok()) << program.status().str();
}

// ---------------------------------------------------------------------
// Deadline trips inside the long pipeline loops.

TEST(DeadlineTrip, ExpiredDeadlineStopsTheKlSearch)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    ScopedDeadline guard(Deadline::afterMs(0));
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::Selective);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(DeadlineTrip, ExpiredDeadlineStopsTheModuloScheduler)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    ScopedDeadline guard(Deadline::afterMs(0));
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(DeadlineTrip, SchedulerHangFailsInstantlyWithoutADeadline)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    FaultPlan plan = parseFaultPlan("modsched.stall").value();
    ScopedFaultPlan armed(plan);
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(),
              ErrorCode::ScheduleBudgetExhausted);
    EXPECT_NE(program.status().message().find("no deadline armed"),
              std::string::npos)
        << program.status().str();
}

TEST(DeadlineTrip, SchedulerHangIsContainedByTheDeadline)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    FaultPlan plan = parseFaultPlan("modsched.stall").value();
    ScopedFaultPlan armed(plan);
    ScopedDeadline guard(Deadline::afterMs(50));
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(DeadlineTrip, SequentialPollCadenceStillLandsTheTrip)
{
    // The sequential engine polls the ambient deadline once per 1024
    // op instances, not per instance: the trip must still land both
    // below the cadence (the poll fires on instance 0) and far above
    // it (the poll keeps firing across the run).
    Module module = parseLirOrDie(kDotProduct);
    MemoryImage mem(module.arrays);
    mem.fillPattern(1);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);

    ScopedDeadline guard(Deadline::afterMs(0));
    for (int64_t n_body : {int64_t{4}, int64_t{4000}}) {
        Expected<RunOutput> run =
            tryExecuteLoop(module.arrays, module.loops.front(),
                           toyMachine(), mem, env, n_body);
        ASSERT_FALSE(run.ok()) << "n_body " << n_body;
        EXPECT_EQ(run.status().code(), ErrorCode::DeadlineExceeded);
        EXPECT_EQ(run.status().stage(), "sim");
    }
}

// ---------------------------------------------------------------------
// The simulator cycle watchdog.

TEST(Watchdog, ExplicitCycleCeilingTrips)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    CompiledProgram program = compileLoopOrDie(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);

    MemoryImage mem(arrays);
    mem.fillPattern(1);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);

    ExecLimits limits;
    limits.maxCycles = 1;   // no pipeline finishes in one cycle
    Expected<ExecResult> run = tryRunCompiled(
        program, arrays, toyMachine(), mem, env, 64, limits);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), ErrorCode::WatchdogTripped);
    EXPECT_EQ(run.status().stage(), "sim");
}

TEST(Watchdog, ValidScheduleNeverTripsTheDerivedBound)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    CompiledProgram program = compileLoopOrDie(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);

    MemoryImage mem(arrays);
    mem.fillPattern(1);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);

    ExecLimits limits;
    limits.watchdogFactor = 16;
    Expected<ExecResult> run = tryRunCompiled(
        program, arrays, toyMachine(), mem, env, 64, limits);
    ASSERT_TRUE(run.ok()) << run.status().str();
    EXPECT_GT(run.value().cycles, 0);
}

TEST(Watchdog, FaultSiteForcesATripOnBoundedRunsOnly)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    CompiledProgram program = compileLoopOrDie(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);

    MemoryImage mem(arrays);
    mem.fillPattern(1);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);

    FaultPlan plan = parseFaultPlan("sim.watchdog:*").value();
    ScopedFaultPlan armed(plan);

    // Unbounded run: the site is never polled, execution is clean.
    Expected<ExecResult> free_run = tryRunCompiled(
        program, arrays, toyMachine(), mem, env, 64, ExecLimits{});
    EXPECT_TRUE(free_run.ok()) << free_run.status().str();

    // Bounded run: the armed site forces the trip.
    ExecLimits limits;
    limits.watchdogFactor = 16;
    MemoryImage mem2(arrays);
    mem2.fillPattern(1);
    Expected<ExecResult> bounded = tryRunCompiled(
        program, arrays, toyMachine(), mem2, env, 64, limits);
    ASSERT_FALSE(bounded.ok());
    EXPECT_EQ(bounded.status().code(), ErrorCode::WatchdogTripped);
}

// ---------------------------------------------------------------------
// Suite quarantine.

TEST(Quarantine, HungAndDivergentLoopsAreContained)
{
    Suite suite = trioSuite();
    Machine machine = paperMachine();

    SuiteReport report;
    {
        // The containment demo: the scheduler "hangs" on the second
        // loop's main schedule (each compile takes two schedules, so
        // hit 2 is beta's), and the simulator watchdog fires on the
        // third loop's pipelined run (hit 0 is alpha's clean run).
        FaultPlan plan =
            parseFaultPlan("modsched.stall:2+1,sim.watchdog:1+1")
                .value();
        ScopedFaultPlan armed(plan);

        EvaluateOptions options;
        options.deadlineMs = 200;   // per loop; contains the stall
        report = evaluateSuite(suite, machine, Technique::ModuloOnly,
                               options);
    }

    ASSERT_EQ(report.loops.size(), 1u);
    EXPECT_EQ(report.loops[0].name, "alpha");

    ASSERT_EQ(report.failures.size(), 2u);
    EXPECT_EQ(report.failures[0].name, "beta");
    EXPECT_EQ(report.failures[0].status.code(),
              ErrorCode::DeadlineExceeded);
    EXPECT_EQ(report.failures[1].name, "gamma");
    EXPECT_EQ(report.failures[1].status.code(),
              ErrorCode::WatchdogTripped);

    // The surviving sibling is byte-identical to its clean-run self.
    SuiteReport clean = evaluateSuite(suite, machine,
                                      Technique::ModuloOnly);
    ASSERT_EQ(clean.loops.size(), 3u);
    EXPECT_TRUE(clean.failures.empty());
    EXPECT_EQ(jsonOfLoopReport(report.loops[0]).dump(),
              jsonOfLoopReport(clean.loops[0]).dump());
    EXPECT_EQ(report.totalCycles, clean.loops[0].weightedCycles);
}

TEST(Quarantine, FaultPlanHitsTheLoopsItNames)
{
    Suite suite = trioSuite();
    Machine machine = paperMachine();

    SuiteReport report;
    {
        // A ModuloOnly compile searches its main loop's schedule
        // first, so the plan's two hits are alpha's and beta's main
        // schedules. A failed compile is quarantined once: nothing
        // compiles the loop again and spends a hit meant for a
        // sibling.
        FaultPlan plan = parseFaultPlan("modsched.search:2").value();
        ScopedFaultPlan armed(plan);

        EvaluateOptions options;
        options.jobs = 1;
        report = evaluateSuite(suite, machine, Technique::ModuloOnly,
                               options);
    }

    ASSERT_EQ(report.failures.size(), 2u);
    EXPECT_EQ(report.failures[0].name, "alpha");
    EXPECT_EQ(report.failures[1].name, "beta");
    for (const LoopFailure &f : report.failures) {
        EXPECT_EQ(f.status.code(), ErrorCode::ScheduleBudgetExhausted)
            << f.status.str();
        EXPECT_EQ(f.status.stage(), "modsched");
    }

    // The loop the plan spared is byte-identical to its clean-run
    // self.
    ASSERT_EQ(report.loops.size(), 1u);
    EXPECT_EQ(report.loops[0].name, "gamma");
    SuiteReport clean = evaluateSuite(suite, machine,
                                      Technique::ModuloOnly);
    ASSERT_EQ(clean.loops.size(), 3u);
    EXPECT_EQ(jsonOfLoopReport(report.loops[0]).dump(),
              jsonOfLoopReport(clean.loops[2]).dump());
    EXPECT_EQ(report.totalCycles, clean.loops[2].weightedCycles);
}

TEST(Quarantine, CleanBoundedRunIsByteIdenticalToUnbounded)
{
    Suite suite = trioSuite();
    Machine machine = paperMachine();

    SuiteReport unbounded = evaluateSuite(suite, machine,
                                          Technique::ModuloOnly);
    EvaluateOptions bounded;
    bounded.deadlineMs = 60 * 1000;
    SuiteReport guarded = evaluateSuite(suite, machine,
                                        Technique::ModuloOnly, bounded);

    EXPECT_TRUE(guarded.failures.empty());
    EXPECT_EQ(jsonOfSuiteReport(guarded).dump(),
              jsonOfSuiteReport(unbounded).dump());
}

TEST(Quarantine, ReportIsJobsInvariant)
{
    Suite suite = trioSuite();
    Machine machine = paperMachine();

    EvaluateOptions serial;
    serial.deadlineMs = 60 * 1000;
    serial.jobs = 1;
    EvaluateOptions wide = serial;
    wide.jobs = 4;

    SuiteReport a = evaluateSuite(suite, machine,
                                  Technique::ModuloOnly, serial);
    SuiteReport b = evaluateSuite(suite, machine,
                                  Technique::ModuloOnly, wide);
    EXPECT_EQ(jsonOfSuiteReport(a).dump(),
              jsonOfSuiteReport(b).dump());
}

TEST(Quarantine, CancelledBatchQuarantinesEveryLoop)
{
    Suite suite = trioSuite();
    Machine machine = paperMachine();

    EvaluateOptions options;
    options.cancel = CancelToken::create();
    options.cancel.requestCancel();

    SuiteReport serial = evaluateSuite(suite, machine,
                                       Technique::ModuloOnly, options);
    EXPECT_TRUE(serial.loops.empty());
    ASSERT_EQ(serial.failures.size(), 3u);
    for (const LoopFailure &f : serial.failures)
        EXPECT_EQ(f.status.code(), ErrorCode::Cancelled);

    // Cancellation lands identically at any parallelism.
    options.jobs = 4;
    SuiteReport wide = evaluateSuite(suite, machine,
                                     Technique::ModuloOnly, options);
    EXPECT_EQ(jsonOfSuiteReport(wide).dump(),
              jsonOfSuiteReport(serial).dump());
}

TEST(Quarantine, FailuresAppearInTheJsonDocument)
{
    Suite suite = trioSuite();
    FaultPlan plan = parseFaultPlan("modsched.search:*").value();
    ScopedFaultPlan armed(plan);

    SuiteReport report = evaluateSuite(suite, paperMachine(),
                                       Technique::ModuloOnly);
    ASSERT_EQ(report.failures.size(), 3u);

    JsonValue doc = jsonOfSuiteReport(report);
    std::string text = doc.dump();
    EXPECT_NE(text.find("\"failures\""), std::string::npos);
    EXPECT_NE(text.find("\"error_code\""), std::string::npos);
    EXPECT_NE(text.find("schedule-budget-exhausted"),
              std::string::npos);
    // Timings stay out of documents unless SELVEC_TIMINGS is set.
    EXPECT_NE(text.find("\"elapsed_ms\": 0"), std::string::npos);
}

// ---------------------------------------------------------------------
// Repro bundles.

TEST(Repro, MachineDescriptionRoundTrips)
{
    const Machine machines[] = {paperMachine(), toyMachine(),
                                directMoveMachine(), wideMachine(),
                                embeddedMachine()};
    for (const Machine &machine : machines) {
        JsonValue doc = jsonOfMachine(machine);
        Expected<Machine> back = machineOfJson(doc);
        ASSERT_TRUE(back.ok()) << back.status().str();
        EXPECT_EQ(jsonOfMachine(back.value()).dump(), doc.dump());
    }
}

TEST(Repro, FailedLoopWritesAReplayableBundle)
{
    std::string dir = freshDir("selvec_repro_test");
    Suite suite = dotProductSuite();

    std::string path;
    {
        FaultPlan plan = parseFaultPlan("modsched.search:*").value();
        ScopedFaultPlan armed(plan);

        EvaluateOptions options;
        options.reproDir = dir;
        SuiteReport report = evaluateSuite(
            suite, paperMachine(), Technique::ModuloOnly, options);
        ASSERT_EQ(report.failures.size(), 1u);
        EXPECT_EQ(report.failures[0].status.code(),
                  ErrorCode::ScheduleBudgetExhausted);

        path = dir + "/" + suite.name + "." +
               report.failures[0].name + "." +
               techniqueName(Technique::ModuloOnly) + ".repro.json";
    }
    // The plan is cleared now; only the bundle remembers it.

    Expected<ReproBundle> loaded = loadReproBundle(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().str();
    const ReproBundle &bundle = loaded.value();
    EXPECT_EQ(bundle.faultPlan, "modsched.search:*");
    EXPECT_EQ(bundle.technique, Technique::ModuloOnly);
    EXPECT_EQ(bundle.failure.code(),
              ErrorCode::ScheduleBudgetExhausted);
    ASSERT_EQ(bundle.module.loops.size(), 1u);

    // The bundle round-trips through its own JSON byte-for-byte.
    JsonValue doc = jsonOfReproBundle(bundle);
    Expected<ReproBundle> again = reproBundleOfJson(doc);
    ASSERT_TRUE(again.ok()) << again.status().str();
    EXPECT_EQ(jsonOfReproBundle(again.value()).dump(), doc.dump());

    // Replaying re-arms the recorded plan and reproduces the code.
    ReplayOutcome outcome = replayBundle(bundle);
    EXPECT_TRUE(outcome.reproduced) << outcome.status.str();
    EXPECT_EQ(outcome.status.code(),
              ErrorCode::ScheduleBudgetExhausted);
    EXPECT_FALSE(faultPlanArmed());   // replay restored the plan

    std::filesystem::remove_all(dir);
}

TEST(Repro, CleanConfigurationDoesNotReproduce)
{
    Suite suite = dotProductSuite();
    const WorkloadLoop &wl = suite.loops.front();

    ReproBundle bundle;
    bundle.name = suite.loopOf(wl).name;
    bundle.module.arrays = suite.module.arrays;
    bundle.module.loops.push_back(suite.loopOf(wl));
    bundle.liveIns = wl.liveIns;
    bundle.machine = paperMachine();
    bundle.technique = Technique::ModuloOnly;
    bundle.tripCount = wl.tripCount;
    bundle.memPattern = 1;
    // Claim a failure that a healthy pipeline cannot produce.
    bundle.failure = Status::error(ErrorCode::ScheduleBudgetExhausted,
                                   "modsched", "stale claim");

    ReplayOutcome outcome = replayBundle(bundle);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.str();
    EXPECT_FALSE(outcome.reproduced);
}

/** Expect `program` to break exactly the DESIGN.md invariant `section`
 *  as a replay-stage VerifyFailed (the status selvec_fuzz counts as a
 *  finding). */
void
expectBroken(const CompiledProgram &program, const char *section)
{
    Status status = checkCompiledInvariants(program);
    EXPECT_EQ(status.code(), ErrorCode::VerifyFailed) << section;
    EXPECT_EQ(status.stage(), "replay") << section;
    EXPECT_NE(status.message().find(section), std::string::npos)
        << status.str();
}

TEST(Repro, CompiledInvariantCheckFlagsEachViolation)
{
    CompiledProgram program;
    program.technique = Technique::Selective;
    program.loops.emplace_back();
    program.loops[0].main.name = "hand";
    program.loops[0].mainSchedule.ii = 4;
    program.loops[0].mainResMii = 4;
    program.loops[0].mainRecMii = 3;
    program.partition.bestCost = 4;
    EXPECT_TRUE(checkCompiledInvariants(program).ok());

    CompiledProgram res_above_ii = program;
    res_above_ii.loops[0].mainResMii = 5;
    res_above_ii.partition.bestCost = 5;
    expectBroken(res_above_ii, "§6.4");

    CompiledProgram rec_above_ii = program;
    rec_above_ii.loops[0].mainRecMii = 5;
    expectBroken(rec_above_ii, "§6.4");

    CompiledProgram incoherent = program;
    incoherent.partition.bestCost = 3;
    expectBroken(incoherent, "§6.3");

    // §6.3 binds KL's Selective partitions only.
    incoherent.partition.exactUsed = true;
    EXPECT_TRUE(checkCompiledInvariants(incoherent).ok());
    incoherent.partition.exactUsed = false;
    incoherent.technique = Technique::Full;
    EXPECT_TRUE(checkCompiledInvariants(incoherent).ok());

    // §6.5 on compiled Selective programs: su2cor's prop loop
    // transfers in both directions through memory and by direct
    // moves, the Figure 1 dot product by free packs and picks. Each
    // transfer op of a main loop, repeated under a fresh destination,
    // is a violation.
    const std::set<Opcode> transfers = {
        Opcode::XferStoreS, Opcode::MovSV,  Opcode::VPack,
        Opcode::XferStoreV, Opcode::MovVS, Opcode::VPick};
    std::set<Opcode> repeated;
    auto repeatEachTransfer = [&](const Suite &suite,
                                  const std::string &name,
                                  const Machine &machine) {
        const Loop *source = nullptr;
        for (const Loop &loop : suite.module.loops)
            if (loop.name == name)
                source = &loop;
        ASSERT_NE(source, nullptr) << name;
        ArrayTable arrays = suite.module.arrays;
        Expected<CompiledProgram> compiled = tryCompileLoop(
            *source, arrays, machine, Technique::Selective);
        ASSERT_TRUE(compiled.ok()) << compiled.status().str();
        EXPECT_TRUE(checkCompiledInvariants(compiled.value()).ok())
            << name << " on " << machine.name;
        for (const Operation &op : compiled.value().loops[0].main.ops) {
            if (transfers.count(op.opcode) == 0)
                continue;
            CompiledProgram twice = compiled.value();
            Loop &main = twice.loops[0].main;
            Operation again = op;
            again.dest = main.addValue(main.typeOf(op.dest), "again");
            main.addOp(std::move(again));
            expectBroken(twice, "§6.5");
            repeated.insert(op.opcode);
        }
    };
    Suite su2cor = makeSuite("103.su2cor");
    repeatEachTransfer(su2cor, "su2cor_prop", paperMachine());
    repeatEachTransfer(su2cor, "su2cor_prop", directMoveMachine());
    Suite dot = dotProductSuite();
    repeatEachTransfer(dot, dot.loopOf(dot.loops.front()).name,
                       toyMachine());
    EXPECT_EQ(repeated, transfers);
}

} // anonymous namespace
} // namespace selvec
