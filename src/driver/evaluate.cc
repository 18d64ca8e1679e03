#include "driver/evaluate.hh"

#include <chrono>

#include "driver/repro.hh"
#include "support/deadline.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/threadpool.hh"
#include "support/trace.hh"

namespace selvec
{

namespace
{

/** What one loop task produced: a report, or a quarantined failure. */
struct LoopOutcome
{
    bool ok = true;
    LoopReport report;
    LoopFailure failure;
};

/** The DriverOptions actually used for one workload loop (the
 *  expansion buffer must cover the trip count). */
DriverOptions
loopDriverOptions(const WorkloadLoop &wl, const EvaluateOptions &options)
{
    DriverOptions dopt = options.driver;
    dopt.expansionSize =
        std::max<int64_t>(dopt.expansionSize, wl.tripCount + 8);
    return dopt;
}

/**
 * Compile, simulate and (optionally) verify one workload loop.
 *
 * Containment: the task runs under a fresh per-loop deadline (plus
 * the caller's cancel token), so a pathological kernel trips its own
 * budget without stealing time from siblings and independently of
 * --jobs. Any structured failure — compile, bounded execution,
 * deadline, watchdog, cancellation — quarantines the loop into a
 * LoopFailure; only a verified divergence from the reference still
 * panics (that is a miscompile, an invariant bug rather than bad
 * input). The success path records exactly the stats and report of a
 * containment-free run, so clean suites stay byte-identical.
 */
LoopOutcome
evaluateLoop(const Suite &suite, const WorkloadLoop &wl,
             const Machine &machine, Technique technique,
             const EvaluateOptions &options)
{
    ScopedDeadline guard(options.deadlineMs > 0
                             ? Deadline::afterMs(options.deadlineMs)
                             : Deadline::never(),
                         options.cancel);
    auto started = std::chrono::steady_clock::now();

    const Loop &loop = suite.loopOf(wl);

    LoopOutcome outcome;
    auto quarantine = [&](Status status) {
        outcome.ok = false;
        outcome.failure.name = loop.name;
        outcome.failure.technique = technique;
        outcome.failure.status = std::move(status);
        outcome.failure.elapsedNs =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - started)
                .count();
        globalStats().add("evaluate.failures");
        return outcome;
    };

    if (deadlineArmed()) {
        Status entry = checkDeadline("evaluate");
        if (!entry)
            return quarantine(entry);
    }

    // Compilation may add scalar-expansion temporaries; both the
    // pipelined run and the reference run use the extended table
    // so their memory images stay comparable.
    ArrayTable arrays = suite.module.arrays;
    DriverOptions dopt = loopDriverOptions(wl, options);
    Expected<CompiledProgram> compiled =
        tryCompileLoop(loop, arrays, machine, technique, dopt);
    if (!compiled.ok())
        return quarantine(compiled.status());
    const CompiledProgram &program = compiled.value();

    ExecLimits limits;
    limits.watchdogFactor = dopt.scheduling.watchdogFactor;

    MemoryImage mem(arrays);
    mem.fillPattern(0xC0FFEE ^ wl.loopIndex);
    Expected<ExecResult> run =
        options.verify
            ? tryRunVerified(program, loop, arrays, machine, mem,
                             wl.liveIns, wl.tripCount, limits)
            : tryRunCompiled(program, arrays, machine, mem, wl.liveIns,
                             wl.tripCount, limits);
    // A divergence from the reference is a miscompile — an invariant
    // bug, not bad input.
    if (!run.ok() && run.status().stage() == "verify")
        SV_PANIC("suite %s: %s", suite.name.c_str(),
                 run.status().message().c_str());
    if (!run.ok())
        return quarantine(run.status());

    globalStats().add("evaluate.kernels");
    if (options.verify)
        globalStats().add("evaluate.verifications");

    LoopReport &lr = outcome.report;
    lr.name = loop.name;
    lr.technique = technique;
    lr.tripCount = wl.tripCount;
    lr.invocations = wl.invocations;
    lr.resMiiPerIter = program.resMiiPerIteration();
    lr.recMiiPerIter = program.recMiiPerIteration();
    lr.iiPerIter = program.iiPerIteration();
    lr.resourceLimited = program.resourceLimited;
    lr.distributedLoops = static_cast<int>(program.loops.size());
    lr.cyclesPerInvocation = run.value().cycles;
    lr.weightedCycles = run.value().cycles * wl.invocations;
    lr.partition = program.partition;
    return outcome;
}

/** Write one failure's repro bundle under `reproDir` (best effort:
 *  an unwritable directory degrades to a warning, never a second
 *  failure). */
void
writeFailureBundle(const Suite &suite, const WorkloadLoop &wl,
                   const Machine &machine, Technique technique,
                   const EvaluateOptions &options,
                   const LoopFailure &failure)
{
    const Loop &loop = suite.loopOf(wl);

    ReproBundle bundle;
    bundle.name = loop.name;
    bundle.module.arrays = suite.module.arrays;
    bundle.module.loops.push_back(loop);
    bundle.liveIns = wl.liveIns;
    bundle.machine = machine;
    bundle.technique = technique;
    bundle.options = loopDriverOptions(wl, options);
    bundle.tripCount = wl.tripCount;
    bundle.invocations = wl.invocations;
    bundle.memPattern =
        static_cast<int64_t>(0xC0FFEE ^ wl.loopIndex);
    bundle.faultPlan = faultPlanSpec(currentFaultPlan());
    bundle.deadlineMs = options.deadlineMs;
    bundle.failure = failure.status;

    std::string path = options.reproDir + "/" + suite.name + "." +
                       loop.name + "." + techniqueName(technique) +
                       ".repro.json";
    Status written = writeReproBundle(path, bundle);
    if (!written)
        SV_WARN("repro bundle for %s/%s not written: %s",
                suite.name.c_str(), loop.name.c_str(),
                written.str().c_str());
    else
        globalStats().add("evaluate.reproBundles");
}

} // anonymous namespace

SuiteReport
evaluateSuite(const Suite &suite, const Machine &machine,
              Technique technique, const EvaluateOptions &options)
{
    TraceSpan span("evaluate.suite");
    ScopedStatTimer timer("time.evaluateSuite");
    SuiteReport report;
    report.suite = suite.name;
    report.technique = technique;

    // An armed fault plan hands hit windows out by arrival order;
    // only a serial run keeps them deterministic per site.
    int jobs =
        faultPlanArmed() ? 1 : resolveJobs(options.jobs);
    ThreadPool pool(jobs);

    size_t n = suite.loops.size();
    std::vector<LoopOutcome> outcomes(n);
    std::vector<StatsRegistry> sinks(n);
    TraceContext tctx = traceCurrentContext();
    std::vector<std::exception_ptr> errors =
        pool.parallelForAll(n, [&](size_t i) {
            // Each task records into a private sink and reports under
            // the caller's open trace spans; the merge below runs in
            // loop order, so the combined registry and trace tree are
            // byte-identical to a serial run (see DESIGN.md §8).
            ScopedStatsSink sink(sinks[i]);
            TraceContextScope tscope(tctx);
            outcomes[i] = evaluateLoop(suite, suite.loops[i], machine,
                                       technique, options);
        });

    for (size_t i = 0; i < n; ++i)
        globalStats().mergeFrom(sinks[i]);
    for (size_t i = 0; i < n; ++i) {
        // A task that escaped with an exception (a panic would have
        // died; this is a std::exception from below the Status
        // layer) quarantines like any structured failure instead of
        // taking the suite down with it.
        if (errors[i] != nullptr) {
            std::string what = "loop task threw";
            try {
                std::rethrow_exception(errors[i]);
            } catch (const std::exception &e) {
                what = e.what();
            } catch (...) {
            }
            LoopOutcome &o = outcomes[i];
            o.ok = false;
            o.failure.name = suite.loopOf(suite.loops[i]).name;
            o.failure.technique = technique;
            o.failure.status = Status::error(ErrorCode::Internal,
                                             "evaluate", what);
            globalStats().add("evaluate.failures");
        }
    }

    for (size_t i = 0; i < n; ++i) {
        LoopOutcome &o = outcomes[i];
        if (o.ok) {
            report.totalCycles += o.report.weightedCycles;
            report.loops.push_back(std::move(o.report));
        } else {
            if (!options.reproDir.empty())
                writeFailureBundle(suite, suite.loops[i], machine,
                                   technique, options, o.failure);
            report.failures.push_back(std::move(o.failure));
        }
    }
    return report;
}

double
speedupOver(const SuiteReport &baseline, const SuiteReport &technique)
{
    SV_ASSERT(technique.totalCycles > 0, "empty technique report");
    return static_cast<double>(baseline.totalCycles) /
           static_cast<double>(technique.totalCycles);
}

} // namespace selvec
