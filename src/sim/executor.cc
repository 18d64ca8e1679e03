#include "sim/executor.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>

#include "sim/execplan.hh"
#include "sim/semantics.hh"
#include "support/checkmode.hh"
#include "support/deadline.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace selvec
{

namespace
{

/** Internal unwind of a bounded run; caught by tryExecuteLoop. */
struct ExecAbort
{
    Status status;
};

/**
 * State and behaviour shared by both engines: global (pre-run) value
 * bindings, the epilogue that assembles a RunOutput, and the helpers
 * both need. Subclasses provide readValue() — how body values are
 * stored differs (per-iteration envs vs rotating ring frames), and the
 * epilogue reads through it.
 */
class EngineBase
{
  public:
    EngineBase(const Loop &loop, const Machine &machine,
               MemoryImage &mem, const LiveEnv &live_ins,
               int64_t n_body, int64_t base, const ExecLimits *limits)
        : loop(loop), machine(machine), mem(mem), nBody(n_body),
          base(base), limits(limits),
          globals(static_cast<size_t>(loop.numValues())),
          hasGlobal(static_cast<size_t>(loop.numValues()), false)
    {
        bindLiveIns(live_ins);
        runPreloads();
        runSplats();
        runReduceInits();
    }

    virtual ~EngineBase() = default;

  protected:
    /**
     * Value of `v` as read during body iteration j. j == nBody is
     * allowed for carried-in values (the continuation reading).
     */
    virtual RtVal readValue(int64_t j, ValueId v) = 0;

    const char *
    vname(ValueId v) const
    {
        return loop.valueInfo(v).name.c_str();
    }

    /** Source-space iteration index of an op instance. */
    int64_t
    origOf(int64_t j, OpId id) const
    {
        return j * loop.coverage + loop.op(id).replica;
    }

    /** Assemble the run's observable outputs; shared verbatim by both
     *  engines so they cannot diverge on epilogue semantics. */
    RunOutput
    buildOutput(int64_t cycles)
    {
        RunOutput out;
        out.bodyIterations = nBody;
        out.cycles = cycles;
        out.dynOps = dynOps;

        // Early exit: observable state comes from the exiting
        // iteration's replica, not the body's last replica.
        if (exitOrig != INT64_MAX) {
            out.exited = true;
            out.exitOrig = exitOrig;
            int64_t body = exitOrig / loop.coverage;
            int replica =
                static_cast<int>(exitOrig % loop.coverage);
            if (loop.coverage == 1) {
                for (size_t c = 0; c < loop.carried.size(); ++c) {
                    const CarriedValue &cv = loop.carried[c];
                    out.carriedFinal[loop.valueInfo(cv.in).name] =
                        readValue(body + 1, cv.in);
                }
                for (ValueId v : loop.liveOuts) {
                    out.liveOuts[loop.valueInfo(v).name] =
                        readValue(body, v);
                }
            } else {
                SV_ASSERT(loop.liveOutLanes.size() ==
                                  loop.liveOuts.size() &&
                              loop.carriedUpdateLanes.size() ==
                                  loop.carried.size(),
                          "covered early-exit loop '%s' lacks lane "
                          "tables", loop.name.c_str());
                for (size_t c = 0; c < loop.carried.size(); ++c) {
                    ValueId lane =
                        loop.carriedUpdateLanes[c]
                                               [static_cast<size_t>(
                                                   replica)];
                    out.carriedFinal[loop.valueInfo(
                        loop.carried[c].in).name] =
                        readValue(body, lane);
                }
                for (size_t i = 0; i < loop.liveOuts.size(); ++i) {
                    ValueId lane =
                        loop.liveOutLanes[i][static_cast<size_t>(
                            replica)];
                    out.liveOuts[loop.valueInfo(loop.liveOuts[i])
                                     .name] = readValue(body, lane);
                }
            }
            return out;
        }

        // Continuation state for every carried value.
        for (const CarriedValue &cv : loop.carried) {
            out.carriedFinal[loop.valueInfo(cv.in).name] =
                readValue(nBody, cv.in);
        }

        // Post-loop reduction folds: combine the accumulator lanes
        // left to right with the scalar semantics of the opcode. The
        // fold also provides continuation state under its own name.
        for (const PostReduce &pr : loop.postReduces) {
            RtVal acc = finalAccumulator(pr.srcVec);
            RtVal folded = foldLanes(pr.op, acc);
            ValueId chain = pr.chainIn != kNoValue ? pr.chainIn
                                                   : pr.dest;
            out.carriedFinal[loop.valueInfo(chain).name] = folded;
            setGlobal(pr.dest, std::move(folded));
        }

        // Draining poststores (final partial chunks of misaligned
        // vector stores).
        if (nBody > 0) {
            for (const PostStore &ps : loop.poststores) {
                RtVal v = readValue(nBody - 1, ps.src);
                int64_t idx = ps.ref.elementAt(base + nBody);
                int lane = ps.lane;
                SV_ASSERT(lane >= 0 && lane < std::max(v.lanes(), 1),
                          "poststore lane %d out of range", lane);
                if (v.floatData)
                    mem.storeF(ps.ref.array, idx, v.laneF(lane));
                else
                    mem.storeI(ps.ref.array, idx, v.laneI(lane));
            }
        }

        for (ValueId v : loop.liveOuts) {
            const std::string &name = loop.valueInfo(v).name;
            if (nBody > 0) {
                out.liveOuts[name] = readValue(nBody - 1, v);
            } else if (hasGlobal[static_cast<size_t>(v)]) {
                out.liveOuts[name] = globals[static_cast<size_t>(v)];
            } else if (loop.carriedIndexOfIn(v) >= 0) {
                out.liveOuts[name] = readValue(0, v);
            }
            // Body-defined live-outs are undefined after zero
            // iterations and intentionally absent.
        }
        return out;
    }

    void
    bindLiveIns(const LiveEnv &live_ins)
    {
        for (ValueId v : loop.liveIns) {
            const std::string &name = loop.valueInfo(v).name;
            auto it = live_ins.find(name);
            if (it != live_ins.end()) {
                setGlobal(v, it->second);
                continue;
            }
            if (name.rfind("__", 0) == 0) {
                // Lowering-internal values default to zero.
                Type t = loop.typeOf(v);
                setGlobal(v, t == Type::F64 ? RtVal::scalarF(0.0)
                                            : RtVal::scalarI(0));
                continue;
            }
            // Callers must bind every live-in (tryRunCompiled /
            // tryRunReference check first); reaching here is a
            // precondition violation.
            SV_PANIC("loop '%s': live-in '%s' unbound",
                     loop.name.c_str(), name.c_str());
        }
    }

    void
    runPreloads()
    {
        for (const PreLoad &pl : loop.preloads) {
            Operation ld;
            ld.opcode = pl.vector ? Opcode::VLoad : Opcode::Load;
            ld.ref = pl.ref;
            RtVal v = evalOp(ld, {}, base, machine.vectorLength, mem);
            setGlobal(pl.dest, std::move(v));
        }
    }

    void
    runSplats()
    {
        for (const SplatIn &si : loop.splatIns) {
            SV_ASSERT(hasGlobal[static_cast<size_t>(si.scalar)],
                      "splat of unbound live-in");
            const RtVal &s = globals[static_cast<size_t>(si.scalar)];
            int vl = machine.vectorLength;
            RtVal v;
            if (s.floatData) {
                v = RtVal::vectorF(std::vector<double>(
                    static_cast<size_t>(vl), s.laneF(0)));
            } else {
                v = RtVal::vectorI(std::vector<int64_t>(
                    static_cast<size_t>(vl), s.laneI(0)));
            }
            setGlobal(si.vec, std::move(v));
        }
    }

    /** Identity element of an associative reduction opcode. */
    static RtVal
    identityOf(Opcode op, bool float_data)
    {
        switch (op) {
          case Opcode::FAdd: return RtVal::scalarF(0.0);
          case Opcode::FMul: return RtVal::scalarF(1.0);
          case Opcode::FMin:
            return RtVal::scalarF(
                std::numeric_limits<double>::infinity());
          case Opcode::FMax:
            return RtVal::scalarF(
                -std::numeric_limits<double>::infinity());
          case Opcode::IAdd: return RtVal::scalarI(0);
          case Opcode::IMul: return RtVal::scalarI(1);
          case Opcode::IMin: return RtVal::scalarI(INT64_MAX);
          case Opcode::IMax: return RtVal::scalarI(INT64_MIN);
          default:
            SV_PANIC("no identity for %s (float=%d)", opName(op),
                     static_cast<int>(float_data));
        }
    }

    void
    runReduceInits()
    {
        for (const ReduceInit &ri : loop.reduceInits) {
            SV_ASSERT(hasGlobal[static_cast<size_t>(ri.scalar)],
                      "reduce-init of unbound live-in");
            const RtVal &s = globals[static_cast<size_t>(ri.scalar)];
            RtVal ident = identityOf(ri.op, s.floatData);
            int vl = machine.vectorLength;
            RtVal v;
            if (s.floatData) {
                std::vector<double> lanes(static_cast<size_t>(vl),
                                          ident.laneF(0));
                lanes[0] = s.laneF(0);
                v = RtVal::vectorF(std::move(lanes));
            } else {
                std::vector<int64_t> lanes(static_cast<size_t>(vl),
                                           ident.laneI(0));
                lanes[0] = s.laneI(0);
                v = RtVal::vectorI(std::move(lanes));
            }
            setGlobal(ri.vec, std::move(v));
        }
    }

    /** Last value of a reduction accumulator (its carried record's
     *  continuation reading, so zero-iteration runs fold the init). */
    RtVal
    finalAccumulator(ValueId src_vec)
    {
        for (const CarriedValue &cv : loop.carried) {
            if (cv.update == src_vec)
                return readValue(nBody, cv.in);
        }
        SV_ASSERT(nBody > 0, "post-reduce of a non-carried vector "
                  "after zero iterations");
        return readValue(nBody - 1, src_vec);
    }

    RtVal
    foldLanes(Opcode op, const RtVal &acc)
    {
        Operation fold;
        fold.opcode = op;
        fold.srcs = {0, 1};
        RtVal result = acc.floatData ? RtVal::scalarF(acc.laneF(0))
                                     : RtVal::scalarI(acc.laneI(0));
        for (int l = 1; l < acc.lanes(); ++l) {
            RtVal lane = acc.floatData ? RtVal::scalarF(acc.laneF(l))
                                       : RtVal::scalarI(acc.laneI(l));
            result = evalOp(fold, {result, lane}, 0,
                            machine.vectorLength, mem);
        }
        return result;
    }

    void
    setGlobal(ValueId v, RtVal val)
    {
        globals[static_cast<size_t>(v)] = std::move(val);
        hasGlobal[static_cast<size_t>(v)] = true;
    }

    /** Poll the ambient deadline every 1024 op instances of a bounded
     *  run: a clock read per handful of ops would scale with the
     *  body, not with wall time. */
    void
    pollDeadline()
    {
        if (limits != nullptr && (processed++ & 1023) == 0 &&
            deadlineArmed()) {
            Status trip = checkDeadline("sim");
            if (!trip)
                throw ExecAbort{trip};
        }
    }

    const Loop &loop;
    const Machine &machine;
    MemoryImage &mem;
    int64_t nBody;
    int64_t base;
    const ExecLimits *limits;   ///< non-null: bounded run

    std::vector<RtVal> globals;
    std::vector<bool> hasGlobal;
    int64_t exitOrig = INT64_MAX;
    std::array<int64_t, kNumOpClasses> dynOps{};
    size_t processed = 0;   ///< op instances seen by pollDeadline
};

/**
 * The reference engine (DESIGN.md §12): body operations run in
 * program order, iteration by iteration, against per-iteration value
 * environments. It serves every sequential run and, under
 * SELVEC_CHECK_SIM, re-runs each pipelined run as its oracle.
 *
 * Early exits: an ExitIf whose condition is nonzero records the
 * earliest exiting iteration; stores of later iterations are
 * suppressed, exactly as the pipeline suppresses its speculative
 * stores.
 */
class ReferenceEngine : public EngineBase
{
  public:
    using EngineBase::EngineBase;

    RunOutput
    run()
    {
        envs.assign(static_cast<size_t>(nBody),
                    std::unordered_map<ValueId, RtVal>());
        for (int64_t j = 0; j < nBody; ++j) {
            for (OpId id = 0; id < loop.numOps(); ++id) {
                pollDeadline();
                executeOp(j, id);
            }
        }
        return buildOutput(0);
    }

  protected:
    RtVal
    readValue(int64_t j, ValueId v) override
    {
        if (hasGlobal[static_cast<size_t>(v)])
            return globals[static_cast<size_t>(v)];

        int ci = loop.carriedIndexOfIn(v);
        if (ci >= 0) {
            const CarriedValue &cv =
                loop.carried[static_cast<size_t>(ci)];
            if (j == 0) {
                SV_ASSERT(hasGlobal[static_cast<size_t>(cv.init)],
                          "carried init '%s' unbound",
                          vname(cv.init));
                return globals[static_cast<size_t>(cv.init)];
            }
            return readValue(j - 1, cv.update);
        }

        SV_ASSERT(j >= 0 && j < nBody, "reading body value '%s' at "
                  "iteration %lld", vname(v),
                  static_cast<long long>(j));
        auto &env = envs[static_cast<size_t>(j)];
        auto it = env.find(v);
        SV_ASSERT(it != env.end(),
                  "iteration %lld reads '%s' before it is produced",
                  static_cast<long long>(j), vname(v));
        return it->second;
    }

  private:
    void
    executeOp(int64_t j, OpId id)
    {
        const Operation &op = loop.op(id);
        if (op.isStore() && origOf(j, id) > exitOrig)
            return;   // store past the exit
        std::vector<RtVal> operands;
        operands.reserve(op.srcs.size());
        for (ValueId s : op.srcs)
            operands.push_back(s == kNoValue ? RtVal{}
                                             : readValue(j, s));
        ++dynOps[static_cast<size_t>(opClass(op.opcode))];
        if (op.opcode == Opcode::ExitIf) {
            if (operands[0].laneI(0) != 0)
                exitOrig = std::min(exitOrig, origOf(j, id));
            return;
        }
        RtVal result =
            evalOp(op, operands, base + j, machine.vectorLength, mem);
        if (op.dest != kNoValue)
            envs[static_cast<size_t>(j)][op.dest] = std::move(result);
    }

    std::vector<std::unordered_map<ValueId, RtVal>> envs;
};

/**
 * The streaming pipelined engine (DESIGN.md §12).
 *
 * Replays the plan's per-II-slot issue template over a rotating
 * window of `plan.windowFrames` dense register frames: II block q
 * opens frame q (retiring frame q - W), then issues the template —
 * entry (slot, stage, op) is iteration j = q - stage at cycle
 * q*II + slot — which enumerates instances in global (cycle,
 * iteration, op) order. Operand reads, readiness checks and result
 * writes are all O(1) array accesses via the plan, and evalOpInto
 * reuses each ring slot's storage, so steady-state execution
 * allocates nothing and memory is O(windowFrames * values),
 * independent of the trip count.
 *
 * The epilogue needs reads the window no longer holds, all of a
 * restricted shape: carried-in continuations at iteration boundaries
 * and, after an early exit, values of the exiting body. Carried
 * boundary state sigma_b (what each carried-in reads at iteration b)
 * is advanced incrementally as frames retire; the exiting body's
 * frame and its adjacent sigmas are snapshotted at retirement. A
 * read a frame can no longer serve and no snapshot covers is an
 * internal invariant violation (SV_PANIC), not silent data.
 */
class StreamEngine : public EngineBase
{
  public:
    StreamEngine(const Loop &loop, const Machine &machine,
                 MemoryImage &mem, const LiveEnv &live_ins,
                 int64_t n_body, int64_t base,
                 const ExecLimits *limits, const ExecPlan &plan)
        : EngineBase(loop, machine, mem, live_ins, n_body, base,
                     limits),
          plan(plan), W(plan.windowFrames),
          numVals(static_cast<size_t>(plan.numValues))
    {
        ring.resize(static_cast<size_t>(W) * numVals);
        ringEpoch.assign(static_cast<size_t>(W) * numVals, -1);
        frameIter.assign(static_cast<size_t>(W), -1);
        operandPtrs.resize(
            static_cast<size_t>(std::max(plan.maxSrcs, 1)));
        snapFrame.resize(numVals);
        snapDefined.assign(numVals, 0);
        // Ops whose dest is also a same-iteration frame operand
        // (non-SSA bodies): evalOpInto's no-alias precondition needs
        // a bounce through scratch.
        selfRead.assign(static_cast<size_t>(plan.numOps), 0);
        for (OpId id = 0; id < plan.numOps; ++id) {
            const PlanOp &pop = plan.ops[static_cast<size_t>(id)];
            if (pop.dest == kNoValue)
                continue;
            for (int32_t i = 0; i < pop.srcCount; ++i) {
                const PlanOperand &po =
                    plan.operands[static_cast<size_t>(pop.srcBegin +
                                                      i)];
                if (po.kind == PlanOperand::Kind::Frame &&
                    po.hops == 0 && po.value == pop.dest)
                    selfRead[static_cast<size_t>(id)] = 1;
            }
        }
    }

    RunOutput
    run()
    {
        initSigma();
        RunOutput out = buildOutput(runStreaming());
        // The pipeline drains after the exiting body.
        if (out.exited) {
            out.cycles = out.exitOrig / loop.coverage * plan.ii +
                         plan.completionSpan;
        }
        return out;
    }

    int64_t
    instanceCount() const
    {
        return instances;
    }

    int64_t
    windowFrames() const
    {
        return W;
    }

  protected:
    /** Epilogue reads only: globals, carried boundary state, live
     *  window frames, and the exit snapshots. */
    RtVal
    readValue(int64_t j, ValueId v) override
    {
        if (hasGlobal[static_cast<size_t>(v)])
            return globals[static_cast<size_t>(v)];

        int ci = loop.carriedIndexOfIn(v);
        if (ci >= 0) {
            const CarriedValue &cv =
                loop.carried[static_cast<size_t>(ci)];
            if (j == 0) {
                SV_ASSERT(hasGlobal[static_cast<size_t>(cv.init)],
                          "carried init '%s' unbound",
                          vname(cv.init));
                return globals[static_cast<size_t>(cv.init)];
            }
            if (j == sigmaBoundary)
                return sigmaRead(sigmaCur[static_cast<size_t>(ci)]);
            if (havePrev && j == sigmaBoundary - 1)
                return sigmaRead(sigmaPrev[static_cast<size_t>(ci)]);
            if (snapSigmaValid && j == snapBody)
                return sigmaRead(snapSigma[static_cast<size_t>(ci)]);
            if (snapNextValid && j == snapBody + 1)
                return sigmaRead(
                    snapSigmaNext[static_cast<size_t>(ci)]);
            SV_PANIC("streaming executor: no boundary state for "
                     "carried '%s' at iteration %lld", vname(v),
                     static_cast<long long>(j));
        }

        SV_ASSERT(j >= 0 && j < nBody, "reading body value '%s' at "
                  "iteration %lld", vname(v),
                  static_cast<long long>(j));
        if (frameIter[static_cast<size_t>(j % W)] == j) {
            size_t idx = ringIndex(j, v);
            SV_ASSERT(ringEpoch[idx] == j,
                      "iteration %lld reads '%s' before it is "
                      "produced", static_cast<long long>(j),
                      vname(v));
            return ring[idx];
        }
        if (snapFrameValid && j == snapBody) {
            SV_ASSERT(snapDefined[static_cast<size_t>(v)] != 0,
                      "iteration %lld reads '%s' before it is "
                      "produced", static_cast<long long>(j),
                      vname(v));
            return snapFrame[static_cast<size_t>(v)];
        }
        SV_PANIC("streaming executor: frame %lld retired before a "
                 "read of '%s'", static_cast<long long>(j),
                 vname(v));
    }

  private:
    /** What one carried-in value reads at a completed iteration
     *  boundary. Unbound inits and never-produced updates are
     *  recorded, not fatal: a run dies only when such a value is
     *  actually read, and the epilogue may never read it. */
    struct SigmaEntry
    {
        RtVal val;
        ValueId unboundInit = kNoValue;
        ValueId undefValue = kNoValue;
        int64_t undefIter = 0;
    };

    size_t
    ringIndex(int64_t f, ValueId v) const
    {
        return static_cast<size_t>(f % W) * numVals +
               static_cast<size_t>(v);
    }

    const RtVal &
    sigmaRead(const SigmaEntry &e) const
    {
        if (e.unboundInit != kNoValue)
            SV_PANIC("carried init '%s' unbound",
                     vname(e.unboundInit));
        if (e.undefValue != kNoValue)
            SV_PANIC("iteration %lld reads '%s' before it is "
                     "produced",
                     static_cast<long long>(e.undefIter),
                     vname(e.undefValue));
        return e.val;
    }

    /** sigma_0: every carried-in reads its init at iteration 0. */
    void
    initSigma()
    {
        size_t n = loop.carried.size();
        sigmaCur.resize(n);
        sigmaPrev.resize(n);
        sigmaScratch.resize(n);
        for (size_t c = 0; c < n; ++c) {
            SigmaEntry &e = sigmaCur[c];
            e.unboundInit = kNoValue;
            e.undefValue = kNoValue;
            ValueId init = loop.carried[c].init;
            if (hasGlobal[static_cast<size_t>(init)])
                e.val = globals[static_cast<size_t>(init)];
            else
                e.unboundInit = init;
        }
    }

    /** sigma_{f+1}[c] = readValue(f, update_c), resolved against
     *  frame f, sigma_f and the globals — no recursion. */
    void
    computeSigmaNext(int64_t f, ValueId u, SigmaEntry &e)
    {
        e.unboundInit = kNoValue;
        e.undefValue = kNoValue;
        if (hasGlobal[static_cast<size_t>(u)]) {
            e.val = globals[static_cast<size_t>(u)];
            return;
        }
        int ci = loop.carriedIndexOfIn(u);
        if (ci >= 0) {
            // readValue(f, in_ci) is by definition sigma_f[ci].
            e = sigmaCur[static_cast<size_t>(ci)];
            return;
        }
        size_t idx = ringIndex(f, u);
        if (frameIter[static_cast<size_t>(f % W)] == f &&
            ringEpoch[idx] == f) {
            e.val = ring[idx];
            return;
        }
        e.undefValue = u;
        e.undefIter = f;
    }

    /** Advance the carried boundary past frame f, capturing the
     *  exit-adjacent sigmas when f is the exiting body. */
    void
    advanceBoundary(int64_t f)
    {
        SV_ASSERT(sigmaBoundary == f,
                  "streaming executor: boundary %lld out of step "
                  "with frame %lld",
                  static_cast<long long>(sigmaBoundary),
                  static_cast<long long>(f));
        bool capture = exitOrig != INT64_MAX && f == snapBody;
        if (capture && !snapSigmaValid) {
            snapSigma = sigmaCur;
            snapSigmaValid = true;
        }
        for (size_t c = 0; c < loop.carried.size(); ++c)
            computeSigmaNext(f, loop.carried[c].update,
                             sigmaScratch[c]);
        std::swap(sigmaPrev, sigmaCur);
        std::swap(sigmaCur, sigmaScratch);
        havePrev = true;
        ++sigmaBoundary;
        if (capture && !snapNextValid) {
            snapSigmaNext = sigmaCur;
            snapNextValid = true;
        }
    }

    /** Copy the exiting body's frame before its slot is reused. */
    void
    snapshotFrame(int64_t f)
    {
        for (size_t v = 0; v < numVals; ++v) {
            size_t idx = static_cast<size_t>(f % W) * numVals + v;
            snapDefined[v] = ringEpoch[idx] == f ? 1 : 0;
            if (snapDefined[v] != 0)
                snapFrame[v] = ring[idx];
        }
        snapFrameValid = true;
    }

    void
    openFrame(int64_t q)
    {
        if (q >= W) {
            int64_t f = q - W;
            if (exitOrig != INT64_MAX && f == snapBody)
                snapshotFrame(f);
            advanceBoundary(f);
        }
        frameIter[static_cast<size_t>(q % W)] = q;
    }

    /** Advance sigma over the frames still live when issue ends. */
    void
    drain()
    {
        for (int64_t f = sigmaBoundary; f < nBody; ++f)
            advanceBoundary(f);
    }

    void
    noteExit(int64_t orig)
    {
        if (orig >= exitOrig)
            return;
        exitOrig = orig;
        int64_t b = orig / loop.coverage;
        if (b != snapBody) {
            // The deciding instance runs no later than block
            // b + maxStage and frame b retires at block b + W >
            // b + maxStage, so frame b and its sigmas are always
            // still ahead of us here.
            snapBody = b;
            snapSigmaValid = false;
            snapNextValid = false;
            snapFrameValid = false;
        }
    }

    /** Resolve one plan operand for iteration j: a pointer into the
     *  globals, the init pool's bindings, or the ring — no recursion,
     *  no copy. A ring read asserts its producer has completed by
     *  `cycle`: the executor checks latencies independently of the
     *  schedule checker. */
    const RtVal *
    resolveRead(const PlanOperand &po, int64_t j, OpId id,
                ValueId src, int64_t cycle)
    {
        switch (po.kind) {
          case PlanOperand::Kind::None:
            return &emptyVal;
          case PlanOperand::Kind::Global:
            if (j < po.hops)
                return &initValue(po, j);
            return &globals[static_cast<size_t>(po.value)];
          case PlanOperand::Kind::Cyclic: {
            int64_t idx = j < po.hops
                              ? j
                              : po.hops + (j - po.hops) % po.cycle;
            return &initValue(po, idx);
          }
          case PlanOperand::Kind::Frame: {
            if (j < po.hops)
                return &initValue(po, j);
            int64_t f = j - po.hops;
            SV_ASSERT(po.readyBase != INT64_MIN,
                      "ready time of undefined value");
            int64_t ready = f * plan.ii + po.readyBase;
            SV_ASSERT(ready <= cycle,
                      "op #%d of iteration %lld reads '%s' at "
                      "cycle %lld but it completes at %lld",
                      id, static_cast<long long>(j), vname(src),
                      static_cast<long long>(cycle),
                      static_cast<long long>(ready));
            size_t idx = ringIndex(f, po.value);
            SV_ASSERT(frameIter[static_cast<size_t>(f % W)] == f &&
                          ringEpoch[idx] == f,
                      "iteration %lld reads '%s' before it is "
                      "produced", static_cast<long long>(f),
                      vname(po.value));
            return &ring[idx];
          }
        }
        SV_PANIC("unreachable operand kind");
    }

    /** Init-pool binding for peel depth `idx` of a chain operand. */
    const RtVal &
    initValue(const PlanOperand &po, int64_t idx)
    {
        ValueId init = plan.initPool[static_cast<size_t>(
            po.initBegin + idx)];
        SV_ASSERT(hasGlobal[static_cast<size_t>(init)],
                  "carried init '%s' unbound", vname(init));
        return globals[static_cast<size_t>(init)];
    }

    /** Speculative stores past the exit are suppressed (the
     *  dependence edges guarantee the deciding exits have resolved
     *  before any suppressible store issues). */
    void
    execInstance(int64_t j, OpId id, int64_t cycle)
    {
        const Operation &op = loop.op(id);
        const PlanOp &pop = plan.ops[static_cast<size_t>(id)];
        ++instances;
        if (pop.isStore && origOf(j, id) > exitOrig)
            return;
        for (int32_t i = 0; i < pop.srcCount; ++i) {
            const PlanOperand &po =
                plan.operands[static_cast<size_t>(pop.srcBegin + i)];
            operandPtrs[static_cast<size_t>(i)] = resolveRead(
                po, j, id, op.srcs[static_cast<size_t>(i)], cycle);
        }
        ++dynOps[pop.opClassIdx];
        if (pop.isExitIf) {
            if (operandPtrs[0]->laneI(0) != 0)
                noteExit(origOf(j, id));
        } else if (pop.dest == kNoValue) {
            evalOpInto(voidDest, op, operandPtrs.data(),
                       static_cast<size_t>(pop.srcCount), base + j,
                       machine.vectorLength, mem);
        } else {
            size_t idx = ringIndex(j, pop.dest);
            if (selfRead[static_cast<size_t>(id)] != 0) {
                evalOpInto(voidDest, op, operandPtrs.data(),
                           static_cast<size_t>(pop.srcCount),
                           base + j, machine.vectorLength, mem);
                ring[idx] = voidDest;
            } else {
                evalOpInto(ring[idx], op, operandPtrs.data(),
                           static_cast<size_t>(pop.srcCount),
                           base + j, machine.vectorLength, mem);
            }
            ringEpoch[idx] = j;
        }
    }

    int64_t
    runStreaming()
    {
        // Cycle watchdog (bounded runs only): the expected completion
        // comes from the schedule itself, so a valid schedule cannot
        // trip the derived bound — it contains mis-scheduled
        // pipelines whose cycles run away, and the explicit
        // maxCycles ceiling covers genuine-trip tests and replays.
        int64_t max_cycles = 0;
        if (limits != nullptr) {
            int64_t expected =
                nBody * plan.ii + plan.completionSpan;
            max_cycles = limits->maxCycles;
            if (max_cycles <= 0 && limits->watchdogFactor > 0) {
                max_cycles = limits->watchdogFactor *
                             std::max<int64_t>(1, expected);
            }
            if (max_cycles > 0 && faultPointHit("sim.watchdog")) {
                throw ExecAbort{Status::error(
                    ErrorCode::WatchdogTripped, "sim",
                    strfmt("fault injected at sim.watchdog: pipelined "
                           "run of loop '%s' forced past its cycle "
                           "bound of %lld",
                           loop.name.c_str(),
                           static_cast<long long>(max_cycles)))};
            }
        }

        int64_t completion = 0;
        if (nBody > 0) {
            const int64_t q_max = nBody - 1 + plan.maxStage;
            for (int64_t q = 0; q <= q_max; ++q) {
                if (q < nBody)
                    openFrame(q);
                for (const PlanIssue &is : plan.issues) {
                    int64_t j = q - is.stage;
                    if (j < 0 || j >= nBody)
                        continue;
                    int64_t cycle = q * plan.ii + is.slot;
                    if (max_cycles > 0 && cycle > max_cycles) {
                        throw ExecAbort{Status::error(
                            ErrorCode::WatchdogTripped, "sim",
                            strfmt("loop '%s': event due at cycle "
                                   "%lld exceeds the watchdog bound "
                                   "of %lld (%lld body iterations "
                                   "at II %lld)",
                                   loop.name.c_str(),
                                   static_cast<long long>(cycle),
                                   static_cast<long long>(
                                       max_cycles),
                                   static_cast<long long>(nBody),
                                   static_cast<long long>(
                                       plan.ii)))};
                    }
                    pollDeadline();
                    execInstance(j, is.op, cycle);
                    int64_t done =
                        cycle +
                        plan.ops[static_cast<size_t>(is.op)].latency;
                    completion = std::max(completion, done);
                }
            }
        }
        drain();
        return completion;
    }

    const ExecPlan &plan;
    const int64_t W;
    const size_t numVals;

    std::vector<RtVal> ring;          ///< W frames x numVals slots
    std::vector<int64_t> ringEpoch;   ///< iteration that wrote a slot
    std::vector<int64_t> frameIter;   ///< iteration held per frame

    std::vector<SigmaEntry> sigmaCur;    ///< sigma_{sigmaBoundary}
    std::vector<SigmaEntry> sigmaPrev;   ///< sigma_{sigmaBoundary-1}
    std::vector<SigmaEntry> sigmaScratch;
    int64_t sigmaBoundary = 0;
    bool havePrev = false;

    int64_t snapBody = -1;   ///< exiting body (exitOrig / coverage)
    bool snapSigmaValid = false;
    bool snapNextValid = false;
    bool snapFrameValid = false;
    std::vector<SigmaEntry> snapSigma;       ///< sigma_{snapBody}
    std::vector<SigmaEntry> snapSigmaNext;   ///< sigma_{snapBody+1}
    std::vector<RtVal> snapFrame;
    std::vector<char> snapDefined;

    std::vector<const RtVal *> operandPtrs;
    std::vector<char> selfRead;
    RtVal emptyVal;    ///< stands in for kNoValue operands
    RtVal voidDest;    ///< sink for destination-less results

    int64_t instances = 0;
};

/**
 * The SELVEC_CHECK_SIM oracle: re-run a finished pipelined run on the
 * reference engine from `before`, the memory image the run started
 * from, and die unless every observable and the final memory match
 * and an exit-free run took the closed-form cycle count
 * (n_body - 1) * II + max_op(time + latency). The re-run records no
 * stats and no trace spans, so documents do not depend on the mode.
 */
void
checkAgainstReference(const Loop &loop, const Machine &machine,
                      const LiveEnv &live_ins, int64_t n_body,
                      int64_t base, const ModuloSchedule &schedule,
                      const RunOutput &out, const MemoryImage &mem,
                      MemoryImage &before)
{
    RunOutput ref = ReferenceEngine(loop, machine, before, live_ins,
                                    n_body, base, nullptr)
                        .run();
    const char *field = nullptr;
    if (out.bodyIterations != ref.bodyIterations)
        field = "body iterations";
    else if (out.exited != ref.exited || out.exitOrig != ref.exitOrig)
        field = "exit state";
    else if (out.dynOps != ref.dynOps)
        field = "dynamic op counts";
    else if (!(out.liveOuts == ref.liveOuts))
        field = "live-outs";
    else if (!(out.carriedFinal == ref.carriedFinal))
        field = "carried state";
    if (field != nullptr) {
        SV_PANIC("SELVEC_CHECK_SIM: loop '%s': %s diverge between "
                 "the pipelined run and the reference",
                 loop.name.c_str(), field);
    }
    std::string diff = mem.diff(before);
    if (!diff.empty()) {
        SV_PANIC("SELVEC_CHECK_SIM: loop '%s': memory diverges "
                 "between the pipelined run and the reference: %s",
                 loop.name.c_str(), diff.c_str());
    }
    if (out.exited)
        return;
    int64_t span = 0;
    for (OpId id = 0; id < loop.numOps(); ++id) {
        span = std::max(span, schedule.time[static_cast<size_t>(id)] +
                                  machine.latency(loop.op(id).opcode));
    }
    int64_t expected = n_body > 0 ? (n_body - 1) * schedule.ii + span
                                  : 0;
    if (out.cycles != expected) {
        SV_PANIC("SELVEC_CHECK_SIM: loop '%s': %lld body iterations "
                 "took %lld cycles, the closed form gives %lld",
                 loop.name.c_str(), static_cast<long long>(n_body),
                 static_cast<long long>(out.cycles),
                 static_cast<long long>(expected));
    }
}

/** The body of tryExecuteLoop: the run is bounded by `limits`, and a
 *  trip unwinds as ExecAbort. An engine's null `limits` serves only
 *  the SELVEC_CHECK_SIM reference re-run (checkAgainstReference),
 *  which must not trip on the deadline of the run it checks. */
RunOutput
runLoop(const Loop &loop, const Machine &machine, MemoryImage &mem,
        const LiveEnv &live_ins, int64_t n_body, int64_t base,
        const ModuloSchedule *schedule, const ExecLimits &limits,
        const ExecPlan *plan)
{
    StatsRegistry &stats = globalStats();
    if (schedule == nullptr) {
        RunOutput out = ReferenceEngine(loop, machine, mem, live_ins,
                                        n_body, base, &limits)
                            .run();
        stats.add("sim.referenceRuns");
        stats.add("sim.bodyIterations", out.bodyIterations);
        stats.add("sim.cycles", out.cycles);
        return out;
    }
    ExecPlan local;
    if (plan == nullptr)
        local = buildExecPlan(loop, *schedule, machine);
    else
        stats.add("sim.plan.reuses");
    const ExecPlan &p = plan != nullptr ? *plan : local;
    SV_ASSERT(p.ii == schedule->ii && p.numOps == loop.numOps() &&
                  p.numValues == loop.numValues(),
              "plan built for a different (loop, schedule)");

    std::optional<MemoryImage> before;
    if (checkSimEnabled())
        before.emplace(mem);
    StreamEngine engine(loop, machine, mem, live_ins, n_body, base,
                        &limits, p);
    RunOutput out = engine.run();
    if (before) {
        checkAgainstReference(loop, machine, live_ins, n_body, base,
                              *schedule, out, mem, *before);
    }
    stats.add("sim.pipelinedRuns");
    stats.add("sim.bodyIterations", out.bodyIterations);
    stats.add("sim.cycles", out.cycles);
    stats.add("sim.stream.instances", engine.instanceCount());
    stats.add("sim.stream.window", engine.windowFrames());
    return out;
}

} // anonymous namespace

Expected<RunOutput>
tryExecuteLoop(const ArrayTable &, const Loop &loop,
               const Machine &machine, MemoryImage &mem,
               const LiveEnv &live_ins, int64_t n_body, int64_t base,
               const ModuloSchedule *schedule, const ExecLimits &limits,
               const ExecPlan *plan)
{
    if (n_body < 0) {
        return Status::error(
            ErrorCode::InvalidInput, "sim",
            strfmt("loop '%s': negative iteration count %lld",
                   loop.name.c_str(),
                   static_cast<long long>(n_body)));
    }
    TraceSpan span(schedule != nullptr ? "sim.pipelined"
                                       : "sim.reference");
    try {
        return runLoop(loop, machine, mem, live_ins, n_body, base,
                       schedule, limits, plan);
    } catch (const ExecAbort &abort) {
        globalStats().add("sim.aborts");
        return abort.status;
    }
}

} // namespace selvec
