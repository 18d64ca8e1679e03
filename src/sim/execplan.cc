#include "sim/execplan.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/stats.hh"

namespace selvec
{

namespace
{

/**
 * Peel the carried-value chain of source value `v0` down to its
 * terminal read. Appends the inits encountered along the peel to
 * `init_pool`.
 */
PlanOperand
resolveOperand(const Loop &loop, const std::vector<bool> &global_mask,
               const std::vector<OpId> &def_of,
               const ModuloSchedule &schedule, const Machine &machine,
               ValueId v0, std::vector<ValueId> &init_pool)
{
    PlanOperand res;
    if (v0 == kNoValue)
        return res;

    res.initBegin = static_cast<int32_t>(init_pool.size());

    // Chain indices already peeled, in peel order, for cycle
    // detection (a degenerate carried value may update from its own
    // in, directly or through other chains).
    std::vector<int> peeled;

    ValueId v = v0;
    for (;;) {
        if (global_mask[static_cast<size_t>(v)]) {
            res.kind = PlanOperand::Kind::Global;
            res.value = v;
            res.hops = static_cast<int32_t>(peeled.size());
            return res;
        }
        int ci = loop.carriedIndexOfIn(v);
        if (ci < 0) {
            res.kind = PlanOperand::Kind::Frame;
            res.value = v;
            res.hops = static_cast<int32_t>(peeled.size());
            OpId def = def_of[static_cast<size_t>(v)];
            if (def != kNoOp) {
                res.readyBase =
                    schedule.time[static_cast<size_t>(def)] +
                    machine.latency(loop.op(def).opcode);
            }
            return res;
        }
        auto seen = std::find(peeled.begin(), peeled.end(), ci);
        if (seen != peeled.end()) {
            // The chain loops back on itself: every read bottoms out
            // at an init, cyclically past the prefix.
            res.kind = PlanOperand::Kind::Cyclic;
            res.hops =
                static_cast<int32_t>(seen - peeled.begin());
            res.cycle = static_cast<int32_t>(peeled.size()) - res.hops;
            return res;
        }
        peeled.push_back(ci);
        init_pool.push_back(loop.carried[static_cast<size_t>(ci)].init);
        v = loop.carried[static_cast<size_t>(ci)].update;
    }
}

} // anonymous namespace

ExecPlan
buildExecPlan(const Loop &loop, const ModuloSchedule &schedule,
              const Machine &machine)
{
    SV_ASSERT(schedule.ii >= 1, "plan for loop '%s': II %lld",
              loop.name.c_str(),
              static_cast<long long>(schedule.ii));
    SV_ASSERT(static_cast<int>(schedule.time.size()) == loop.numOps(),
              "schedule sized for a different loop");

    ExecPlan plan;
    plan.ii = schedule.ii;
    plan.numOps = loop.numOps();
    plan.numValues = loop.numValues();

    // The executor's pre-run global set is loop-structural: live-ins,
    // preload destinations, splat vectors and reduce-init vectors are
    // bound before the first instance issues and nothing else becomes
    // global during a run.
    plan.globalMask.assign(static_cast<size_t>(plan.numValues), false);
    for (ValueId v : loop.liveIns)
        plan.globalMask[static_cast<size_t>(v)] = true;
    for (const PreLoad &pl : loop.preloads)
        plan.globalMask[static_cast<size_t>(pl.dest)] = true;
    for (const SplatIn &si : loop.splatIns)
        plan.globalMask[static_cast<size_t>(si.vec)] = true;
    for (const ReduceInit &ri : loop.reduceInits)
        plan.globalMask[static_cast<size_t>(ri.vec)] = true;

    plan.defOf.assign(static_cast<size_t>(plan.numValues), kNoOp);
    for (OpId id = 0; id < plan.numOps; ++id) {
        if (loop.op(id).dest != kNoValue)
            plan.defOf[static_cast<size_t>(loop.op(id).dest)] = id;
    }

    plan.ops.resize(static_cast<size_t>(plan.numOps));
    plan.issues.resize(static_cast<size_t>(plan.numOps));
    for (OpId id = 0; id < plan.numOps; ++id) {
        const Operation &op = loop.op(id);
        PlanOp &pop = plan.ops[static_cast<size_t>(id)];
        pop.time = schedule.time[static_cast<size_t>(id)];
        pop.latency = machine.latency(op.opcode);
        pop.dest = op.dest;
        pop.opClassIdx =
            static_cast<uint8_t>(static_cast<int>(opClass(op.opcode)));
        pop.isStore = op.isStore();
        pop.isExitIf = op.opcode == Opcode::ExitIf;
        pop.srcBegin = static_cast<int32_t>(plan.operands.size());
        pop.srcCount = static_cast<int32_t>(op.srcs.size());
        plan.maxSrcs =
            std::max(plan.maxSrcs, static_cast<int>(op.srcs.size()));
        for (ValueId s : op.srcs) {
            plan.operands.push_back(
                resolveOperand(loop, plan.globalMask, plan.defOf,
                               schedule, machine, s, plan.initPool));
        }
        plan.completionSpan =
            std::max(plan.completionSpan, pop.time + pop.latency);
        plan.maxStage = std::max(plan.maxStage, pop.time / plan.ii);

        PlanIssue &is = plan.issues[static_cast<size_t>(id)];
        is.slot = static_cast<int32_t>(pop.time % plan.ii);
        is.stage = static_cast<int32_t>(pop.time / plan.ii);
        is.op = id;
    }

    for (const PlanOperand &po : plan.operands) {
        if (po.kind == PlanOperand::Kind::Frame)
            plan.maxChainHops = std::max(plan.maxChainHops, po.hops);
    }

    // Window sizing: the last instance touching frame j issues at
    // cycle (j + maxStage)*II + (II-1) < (j + completionSpan/II + 2)*II,
    // so frame j may be reused once block j + completionSpan/II + 2
    // opens; maxChainHops more frames keep the deepest
    // cross-iteration operand read alive.
    plan.windowFrames =
        plan.completionSpan / plan.ii + 2 + plan.maxChainHops;

    // Within one II block, ascending slot is ascending cycle; at one
    // cycle, descending stage is ascending iteration (j = block -
    // stage); OpId breaks the remaining ties — together global
    // (cycle, j, op) event order.
    std::sort(plan.issues.begin(), plan.issues.end(),
              [](const PlanIssue &a, const PlanIssue &b) {
                  if (a.slot != b.slot)
                      return a.slot < b.slot;
                  if (a.stage != b.stage)
                      return a.stage > b.stage;
                  return a.op < b.op;
              });

    globalStats().add("sim.plan.builds");
    return plan;
}

} // namespace selvec
