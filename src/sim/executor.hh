/**
 * @file
 * The loop execution engine.
 *
 * Loops execute in two modes sharing all operand semantics:
 *
 *  - sequential (reference): body operations run in program order,
 *    iteration by iteration — the correctness oracle;
 *  - pipelined: operations run in global schedule order (operation at
 *    kernel time t of body iteration j executes at cycle j*II + t),
 *    exactly as the software pipeline issues them, with per-iteration
 *    register instances standing in for rotating registers. The engine
 *    asserts every operand has been produced when read and reports the
 *    completion cycle of the whole pipeline (prologue + kernel +
 *    epilogue), which is the quantity the evaluation measures.
 *
 * Pipelined runs use the streaming engine: a precompiled ExecPlan
 * (sim/execplan.hh) replays a per-II-slot issue template over a
 * rotating ring of dense register frames, so time is O(n_body * ops)
 * with no event list or sort and memory is O(II * ops +
 * windowFrames * values) regardless of trip count.
 *
 * SELVEC_CHECK_SIM (support/checkmode.hh) checks every pipelined run
 * against the reference: the memory image is copied before the run,
 * the same loop is re-run sequentially from the copy afterwards, and
 * the process dies unless body iterations, exit state, dynOps,
 * live-outs, carried state and memory all match and an exit-free
 * run's cycles equal the closed form (n_body - 1) * II +
 * max_op(time + latency). The re-run records no stats and no trace
 * spans.
 *
 * Live values enter and leave by name so the driver can chain a main
 * loop into its cleanup loop and across distributed loop sequences.
 */

#ifndef SELVEC_SIM_EXECUTOR_HH
#define SELVEC_SIM_EXECUTOR_HH

#include <array>
#include <map>
#include <string>

#include "machine/machine.hh"
#include "pipeline/schedule.hh"
#include "sim/memimage.hh"
#include "sim/rtval.hh"
#include "support/expected.hh"

namespace selvec
{

struct ExecPlan;

/** Values passed into / out of a loop, keyed by value name. */
using LiveEnv = std::map<std::string, RtVal>;

struct RunOutput
{
    int64_t bodyIterations = 0;

    /** Completion cycle of the last operation (pipelined mode only). */
    int64_t cycles = 0;

    /** Live-out values by name. */
    LiveEnv liveOuts;

    /** For each carried value (by carried-in name): what the next
     *  iteration would have read — the continuation state a cleanup
     *  loop resumes from. */
    LiveEnv carriedFinal;

    /** Dynamic operation counts per operation class (suppressed
     *  speculative stores are not counted). */
    std::array<int64_t, kNumOpClasses> dynOps{};

    /** Total executed operations. */
    int64_t
    totalDynOps() const
    {
        int64_t total = 0;
        for (int64_t c : dynOps)
            total += c;
        return total;
    }

    /** True when an ExitIf fired. */
    bool exited = false;

    /** Source-space index (within this loop's coverage space) of the
     *  iteration whose exit fired. */
    int64_t exitOrig = 0;
};

/** Bounds on one bounded execution (tryExecuteLoop). */
struct ExecLimits
{
    /**
     * Cycle watchdog: a pipelined run aborts with WatchdogTripped
     * once an event is due past watchdogFactor x the schedule's own
     * expected completion (n_body * II + completion span), clamped
     * below by 1. 0 disables the derived bound. A valid schedule can
     * never trip it — it exists to contain mis-scheduled pipelines,
     * and is exercised by the "sim.watchdog" fault site.
     */
    int64_t watchdogFactor = 0;

    /** Explicit cycle ceiling; overrides the derived bound when > 0
     *  (the genuine-trip path for tests and replay). */
    int64_t maxCycles = 0;
};

/**
 * Execute `loop` for `n_body` body iterations under the containment
 * contract (DESIGN.md §10): the cycle watchdog of `limits` and the
 * ambient deadline/cancellation context are checked during the run,
 * and a trip returns a structured WatchdogTripped / DeadlineExceeded
 * / Cancelled status instead of spinning. On failure `mem` (and any
 * other out-of-band state) is partially executed — quarantine
 * callers must treat the loop's results as void.
 *
 * @param loop the loop (any coverage)
 * @param machine supplies vector length and latencies
 * @param mem simulated memory, updated in place
 * @param live_ins bindings for every live-in (names starting with
 *        "__" default to zero when unbound)
 * @param n_body number of body iterations to run (negative is an
 *        InvalidInput status)
 * @param base iteration-index offset: references evaluate at
 *        base + j (a cleanup loop continuing after J covered
 *        iterations passes base = J * coverage of the main loop)
 * @param schedule nullptr for sequential reference execution, or the
 *        loop's modulo schedule for pipelined execution
 * @param limits the cycle watchdog (the default arms none)
 * @param plan optional prebuilt plan for (loop, schedule, machine)
 *        (see buildExecPlan); nullptr builds one for this run.
 *        Ignored in sequential mode.
 */
Expected<RunOutput>
tryExecuteLoop(const ArrayTable &arrays, const Loop &loop,
               const Machine &machine, MemoryImage &mem,
               const LiveEnv &live_ins, int64_t n_body,
               int64_t base = 0,
               const ModuloSchedule *schedule = nullptr,
               const ExecLimits &limits = {},
               const ExecPlan *plan = nullptr);

} // namespace selvec

#endif // SELVEC_SIM_EXECUTOR_HH
