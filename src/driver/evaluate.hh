/**
 * @file
 * Suite-level evaluation: compile every kernel of a workload suite
 * under one technique, verify the pipelined execution against the
 * sequential reference, and accumulate invocation-weighted cycles —
 * the quantity behind every speedup the paper reports.
 */

#ifndef SELVEC_DRIVER_EVALUATE_HH
#define SELVEC_DRIVER_EVALUATE_HH

#include "driver/driver.hh"
#include "support/deadline.hh"
#include "workloads/workloads.hh"

namespace selvec
{

struct LoopReport
{
    std::string name;
    Technique technique = Technique::ModuloOnly;
    int64_t tripCount = 0;
    int64_t invocations = 0;

    double resMiiPerIter = 0.0;   ///< sum over loops of ResMII/coverage
    double recMiiPerIter = 0.0;   ///< sum over loops of RecMII/coverage
    double iiPerIter = 0.0;       ///< achieved II per original iteration
    bool resourceLimited = false;
    int distributedLoops = 1;     ///< compiled loop count (traditional)

    int64_t cyclesPerInvocation = 0;
    int64_t weightedCycles = 0;

    /** Selective only. */
    PartitionResult partition;
};

/**
 * One quarantined loop: a kernel whose compile or bounded run failed
 * (deadline, watchdog, cancellation, injected fault, bad bindings).
 * Sibling loops complete normally; the suite report carries these
 * entries instead of dying (DESIGN.md §10).
 */
struct LoopFailure
{
    std::string name;
    Technique technique = Technique::ModuloOnly;

    /** The failure itself (never Ok). */
    Status status;

    /** Wall-clock spent on the loop before it failed. Nondeterminism
     *  stays out of documents: reportjson zeroes it unless
     *  SELVEC_TIMINGS is set. */
    int64_t elapsedNs = 0;
};

struct SuiteReport
{
    std::string suite;
    Technique technique = Technique::ModuloOnly;
    int64_t totalCycles = 0;
    std::vector<LoopReport> loops;

    /** Quarantined loops, in suite order (empty on a clean run; such
     *  a report is byte-identical to one from before quarantine
     *  existed). */
    std::vector<LoopFailure> failures;
};

struct EvaluateOptions
{
    DriverOptions driver;

    /** Check pipelined results against the reference interpreter
     *  (memory and live-outs, bitwise). Fatal on mismatch. */
    bool verify = true;

    /**
     * Worker threads for per-loop compile+simulate. 1 (the default)
     * runs inline on the calling thread; 0 or negative resolves to
     * hardware concurrency; an armed fault plan forces 1. Reports and
     * merged stats are byte-identical for every value — per-loop work
     * is independent, task sinks merge in loop order, and the compile
     * cache deduplicates concurrent identical requests (see
     * DESIGN.md §8).
     */
    int jobs = 1;

    /**
     * Per-loop wall-clock budget in milliseconds (0: unlimited). The
     * budget is PER LOOP, not per suite, so which loops trip it does
     * not depend on sibling loops or on --jobs: every task gets a
     * fresh deadline, and exactly the pathological kernels land in
     * failures[] while the rest finish byte-identical to a clean run.
     */
    int64_t deadlineMs = 0;

    /** Cooperative cancellation: when cancelled, unstarted loop tasks
     *  (and in-flight long loops at their next poll) fail into
     *  failures[] with ErrorCode::Cancelled. */
    CancelToken cancel;

    /** When non-empty: write a self-contained repro bundle (LIR +
     *  machine + options + fault plan) for every failure under this
     *  directory, replayable with selvec_replay. */
    std::string reproDir;
};

/** Evaluate one suite under one technique. */
SuiteReport evaluateSuite(const Suite &suite, const Machine &machine,
                          Technique technique,
                          const EvaluateOptions &options = {});

/** Speedup of `technique` over the ModuloOnly baseline. */
double speedupOver(const SuiteReport &baseline,
                   const SuiteReport &technique);

} // namespace selvec

#endif // SELVEC_DRIVER_EVALUATE_HH
