/**
 * @file
 * The precompiled execution plan of one (loop, schedule, machine)
 * triple: everything the streaming pipelined executor needs per op
 * instance, resolved once so the per-instance work is a handful of
 * array reads.
 *
 * The pipelined event stream is periodic with period II — the op at
 * kernel time t of body iteration j issues at cycle j*II + t. Sorting
 * a full n_body x ops event list is therefore redundant: group ops by their II slot (t mod II) and
 * pipeline stage (t div II), sort that template once, and the sorted
 * global order is the template replayed per II block with a rolling
 * iteration window. The plan also peels every operand's carried-value
 * chain to a terminal read — a global, a ring-frame slot at a fixed
 * iteration distance, or a cyclic family of init values — which makes
 * operand resolution and readiness O(1) instead of a recursion
 * through the chain.
 *
 * A plan is immutable after construction and independent of trip
 * count, memory contents and live-in bindings, so the driver builds
 * it once per compiled loop and reuses it across the main/cleanup
 * execution chain (stats: `sim.plan.builds` / `sim.plan.reuses`).
 */

#ifndef SELVEC_SIM_EXECPLAN_HH
#define SELVEC_SIM_EXECPLAN_HH

#include <cstdint>
#include <vector>

#include "ir/loop.hh"
#include "machine/machine.hh"
#include "pipeline/schedule.hh"

namespace selvec
{

/**
 * One resolved source operand: how to read op.srcs[i] for body
 * iteration j without walking the carried-value chain at run time.
 *
 * `hops` carried links were peeled at plan time; iterations j < hops
 * bottom out at the chain's init values (initPool[initBegin + j]).
 * Past the peel the read terminates at `value`: a global (Kind
 * Global), the ring-frame slot of iteration j - hops (Kind Frame), or
 * — for chains that loop back on themselves — a cyclic init family
 * (Kind Cyclic, period `cycle`).
 */
struct PlanOperand
{
    enum class Kind : uint8_t { None, Global, Frame, Cyclic };

    Kind kind = Kind::None;
    ValueId value = kNoValue;   ///< terminal global or frame value
    int32_t hops = 0;           ///< peeled chain links (prefix length)
    int32_t cycle = 0;          ///< Cyclic: init family period (> 0)
    int32_t initBegin = 0;      ///< index into ExecPlan::initPool

    /** Frame: kernel time + latency of the terminal value's defining
     *  op; completion is (j - hops)*II + readyBase. INT64_MIN when
     *  the terminal value has no defining op (reading it dies with
     *  a diagnostic naming the value). */
    int64_t readyBase = INT64_MIN;
};

/** Plan-time decode of one operation. */
struct PlanOp
{
    int64_t time = 0;           ///< kernel issue time
    int latency = 0;
    ValueId dest = kNoValue;
    uint8_t opClassIdx = 0;     ///< opClass(opcode) as array index
    bool isStore = false;
    bool isExitIf = false;
    int32_t srcBegin = 0;       ///< index into ExecPlan::operands
    int32_t srcCount = 0;
};

/** One issue-template entry: op at slot `slot` of every II block,
 *  `stage` blocks after its iteration opened. */
struct PlanIssue
{
    int32_t slot = 0;
    int32_t stage = 0;
    OpId op = kNoOp;
};

/** See the file comment. Build with buildExecPlan(). */
struct ExecPlan
{
    int64_t ii = 1;
    int numOps = 0;
    int numValues = 0;

    /** Issue-to-completion span of one overlapped body:
     *  max(time + latency) over all ops. */
    int64_t completionSpan = 0;

    /** max(time div II): the deepest pipeline stage any op issues
     *  in. The last instance of iteration j issues in II block
     *  j + maxStage. */
    int64_t maxStage = 0;

    /** Deepest carried-chain peel of any Frame operand. */
    int32_t maxChainHops = 0;

    /**
     * Ring frames the streaming executor keeps live:
     * completionSpan/II + 2 covers the pipeline overlap (frame j is
     * complete before frame j + windowFrames - maxChainHops opens)
     * and maxChainHops more cover the deepest cross-iteration read.
     */
    int64_t windowFrames = 2;

    /** Largest op.srcs.size(): operand-scratch capacity. */
    int maxSrcs = 0;

    std::vector<PlanOp> ops;            ///< by OpId
    std::vector<PlanOperand> operands;  ///< op i's srcs at srcBegin
    std::vector<ValueId> initPool;      ///< peeled chain init values

    /** One entry per op, sorted by (slot asc, stage desc, op asc):
     *  replaying this per II block enumerates instances in global
     *  (cycle, j, op) order. */
    std::vector<PlanIssue> issues;

    /** Values defined before the run: live-ins, preload dests, splat
     *  vectors, reduce-init vectors — the executor's `hasGlobal` set,
     *  which is loop-structural and frozen during a run. */
    std::vector<bool> globalMask;

    /** Defining op per value (kNoOp: externally defined or never
     *  defined). Last definition wins. */
    std::vector<OpId> defOf;
};

/**
 * Build the plan. `schedule` must be sized for `loop`; the plan
 * references both only by value and may outlive them. Records one
 * `sim.plan.builds` stat.
 */
ExecPlan buildExecPlan(const Loop &loop, const ModuloSchedule &schedule,
                       const Machine &machine);

} // namespace selvec

#endif // SELVEC_SIM_EXECPLAN_HH
