/**
 * @file
 * Calls into the library's layers that the workloads share: the
 * stage-by-stage replay of tryCompileLoop used by the traced run, and
 * the execute-and-check step every compiled program goes through.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <optional>
#include <string>

#include "driver/driver.hh"
#include "sim/memimage.hh"
#include "spans.hh"

namespace perfbench
{

/**
 * Rebuild what tryCompileLoop(loop, arrays, machine, technique,
 * options) returns by calling each stage's public function in the
 * driver's order, every call inside a shadow span of `tracer`:
 * verifyLoopStatus, the technique's transform (unrollLoop,
 * fullVectorize, traditionalVectorize, or DepGraph +
 * analyzeVectorizable + tryPartitionOps + transformLoop), then per
 * scheduled loop tryLowerForScheduling, DepGraph, moduloSchedule and
 * validateSchedule. The driver's resource-limited probe, cache and
 * stats bookkeeping are not replayed: their cost is what
 * driver.compile_overhead_ms reports. Counts land in the tracer.
 */
selvec::Expected<selvec::CompiledProgram>
replayCompile(Tracer &tracer, const selvec::Loop &loop,
              selvec::ArrayTable &arrays, const selvec::Machine &machine,
              selvec::Technique technique,
              const selvec::DriverOptions &options);

/** "" when both programs have the same loops, IIs, schedules, MIIs
 *  and partition; otherwise what differs. */
std::string compareCompiled(const selvec::CompiledProgram &a,
                            const selvec::CompiledProgram &b);

/** Drop every compile-cache entry, as a fresh process starts. */
void clearCompileCache();

/** Outcome of running one compiled program and checking it. */
struct Checked
{
    std::string failure;    ///< a run that failed ("" when none)
    std::string wrong;      ///< an output the oracles reject ("" when none)
    int64_t cycles = 0;
};

/**
 * The reference side of a check: the source loop run by the sequential
 * interpreter over its own copy of the array table, with memory filled
 * from `memSeed`. Built once per request and shared by every technique
 * compiled from the same loop.
 */
class Reference
{
  public:
    /** Run the reference interpreter (spans sim.mem_setup and
     *  sim.reference when traced). */
    Reference(Tracer *tracer, const selvec::Loop &loop,
              const selvec::ArrayTable &arrays,
              const selvec::Machine &machine,
              const selvec::LiveEnv &liveIns, int64_t trip,
              uint64_t memSeed);

    Reference(const Reference &) = delete;
    Reference &operator=(const Reference &) = delete;

    const selvec::ArrayTable arrays;
    std::optional<selvec::MemoryImage> mem;     ///< over `arrays`
    selvec::ExecResult result;
    std::string error;      ///< "" when the reference run succeeded
};

/**
 * Plan, run and check one compiled program against `ref`: memory
 * bitwise, every live-out the reference produced, and (with
 * `checkSchedules`) every schedule through the schedule checker.
 * Spans sim.plan, sim.mem_setup, sim.run, sim.verify_diff,
 * analysis.depgraph and pipeline.checker when traced.
 */
Checked runAndCheck(Tracer *tracer, const selvec::CompiledProgram &program,
                    const selvec::Loop &loop,
                    const selvec::ArrayTable &arrays,
                    const selvec::Machine &machine,
                    const selvec::LiveEnv &liveIns, int64_t trip,
                    uint64_t memSeed, const selvec::DriverOptions &options,
                    const Reference &ref, bool checkSchedules);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
