#include "replay.hh"

#if __has_include("driver/compilecache.hh")
#include "driver/compilecache.hh"
#endif

#include "analysis/depgraph.hh"
#include "core/transform.hh"
#include "ir/verifier.hh"
#include "pipeline/checker.hh"
#include "pipeline/lowering.hh"
#include "vectorize/full.hh"
#include "vectorize/traditional.hh"

namespace perfbench
{

using namespace selvec;

namespace
{

/** The driver's scheduleInto, one shadow span per stage. */
Status
replaySchedule(Tracer &t, const Loop &body, const ArrayTable &arrays,
               const Machine &machine, const ScheduleOptions &options,
               Loop &lowered_out, ModuloSchedule &schedule_out,
               int64_t *res_mii, int64_t *rec_mii)
{
    {
        Scope s(&t, "pipeline.lowering", true);
        Expected<Loop> lowered =
            tryLowerForScheduling(body, arrays, machine);
        if (!lowered.ok())
            return lowered.status();
        lowered_out = lowered.takeValue();
    }
    Scope graph_span(&t, "analysis.depgraph", true);
    DepGraph graph(arrays, lowered_out, machine);
    t.count("analysis.depgraph_edges",
            static_cast<double>(graph.edges().size()));
    ScheduleResult sr;
    {
        Scope s(&t, "pipeline.modsched", true);
        sr = moduloSchedule(lowered_out, graph, machine, options);
    }
    t.count("pipeline.modsched_placements",
            static_cast<double>(sr.placements));
    t.count("pipeline.modsched_ii_attempts",
            static_cast<double>(sr.attempts));
    t.count("pipeline.modsched_backtracks",
            static_cast<double>(sr.backtracks));
    if (!sr.ok) {
        return Status::error(sr.code == ErrorCode::Ok
                                 ? ErrorCode::ScheduleBudgetExhausted
                                 : sr.code,
                             "modsched", sr.error);
    }
    std::string check;
    {
        Scope s(&t, "pipeline.checker", true);
        check = validateSchedule(lowered_out, graph, machine, sr.schedule);
    }
    if (!check.empty())
        return Status::error(ErrorCode::VerifyFailed, "checker", check);
    schedule_out = std::move(sr.schedule);
    if (res_mii != nullptr)
        *res_mii = sr.resMii;
    if (rec_mii != nullptr)
        *rec_mii = sr.recMii;
    return Status::success();
}

Expected<CompiledLoop>
replayPair(Tracer &t, const Loop &main_body, const Loop &cleanup_body,
           const ArrayTable &arrays, const Machine &machine,
           const ScheduleOptions &options)
{
    CompiledLoop cl;
    cl.coverage = main_body.coverage;
    Status st = replaySchedule(t, main_body, arrays, machine, options,
                               cl.main, cl.mainSchedule, &cl.mainResMii,
                               &cl.mainRecMii);
    if (!st.ok())
        return st;
    st = replaySchedule(t, cleanup_body, arrays, machine, options,
                        cl.cleanup, cl.cleanupSchedule, nullptr, nullptr);
    if (!st.ok())
        return st;
    return cl;
}

} // anonymous namespace

Expected<CompiledProgram>
replayCompile(Tracer &t, const Loop &loop, ArrayTable &arrays,
              const Machine &machine, Technique technique,
              const DriverOptions &options)
{
    {
        Scope s(&t, "ir.verify", true);
        Status ok = verifyLoopStatus(arrays, loop);
        if (!ok.ok())
            return ok;
    }
    CompiledProgram program;
    program.technique = technique;
    ArrayTable trial = arrays;
    auto pair = [&](const Loop &main, const Loop &cleanup) -> Status {
        Expected<CompiledLoop> cl = replayPair(t, main, cleanup, trial,
                                               machine, options.scheduling);
        if (!cl.ok())
            return cl.status();
        program.loops.push_back(cl.takeValue());
        return Status::success();
    };

    Status st = Status::success();
    switch (technique) {
      case Technique::ModuloOnly: {
        Loop main;
        {
            Scope s(&t, "core.transform", true);
            main = unrollLoop(loop, trial, machine);
        }
        st = pair(main, loop);
        break;
      }
      case Technique::Full: {
        Loop main;
        {
            Scope s(&t, "vectorize.full", true);
            main = fullVectorize(loop, trial, machine);
        }
        st = pair(main, loop);
        break;
      }
      case Technique::Selective: {
        Scope graph_span(&t, "analysis.depgraph", true);
        DepGraph graph(trial, loop, machine);
        t.count("analysis.depgraph_edges",
                static_cast<double>(graph.edges().size()));
        VectAnalysis va;
        {
            Scope s(&t, "analysis.vectorizable", true);
            va = analyzeVectorizable(loop, graph, machine,
                                     options.vectorize);
        }
        bool exact = options.partition.strategy != PartitionStrategy::Kl;
        std::optional<Expected<PartitionResult>> part;
        {
            Scope s(&t, exact ? "core.partition_exact"
                              : "core.partition_kl",
                    true);
            part.emplace(
                tryPartitionOps(loop, va, machine, options.partition));
        }
        if (!part->ok())
            return part->status();
        program.partition = part->takeValue();
        const PartitionResult &p = program.partition;
        if (p.exactUsed) {
            t.count("core.partition_exact_nodes",
                    static_cast<double>(p.exactNodes));
            t.count("core.partition_exact_pruned",
                    static_cast<double>(p.exactPruned));
            t.count("core.partition_exact_unproven", p.exactProven ? 0 : 1);
        } else {
            t.count("core.partition_kl_moves",
                    static_cast<double>(p.movesEvaluated));
        }
        Loop main;
        {
            Scope s(&t, "core.transform", true);
            main = transformLoop(loop, trial, va, p.vectorize, machine);
        }
        st = pair(main, loop);
        break;
      }
      case Technique::Traditional: {
        DistributedLoops dist;
        {
            Scope s(&t, "vectorize.traditional", true);
            dist = traditionalVectorize(loop, trial, machine,
                                        options.expansionSize);
        }
        for (const DistLoop &dl : dist.loops) {
            st = pair(dl.main, dl.cleanup);
            if (!st.ok())
                break;
        }
        break;
      }
      case Technique::IterationSplit:
        st = Status::error(ErrorCode::InvalidInput, "perfbench",
                           "iteration split is not replayed");
        break;
    }
    if (!st.ok())
        return st;
    arrays = std::move(trial);
    return program;
}

std::string
compareCompiled(const CompiledProgram &a, const CompiledProgram &b)
{
    if (a.loops.size() != b.loops.size())
        return "compiled loop counts differ";
    for (size_t i = 0; i < a.loops.size(); ++i) {
        const CompiledLoop &x = a.loops[i];
        const CompiledLoop &y = b.loops[i];
        if (x.coverage != y.coverage)
            return "coverage differs";
        if (x.mainSchedule.ii != y.mainSchedule.ii ||
            x.cleanupSchedule.ii != y.cleanupSchedule.ii)
            return "II differs";
        if (x.mainSchedule.time != y.mainSchedule.time ||
            x.cleanupSchedule.time != y.cleanupSchedule.time)
            return "schedule differs";
        if (x.mainResMii != y.mainResMii || x.mainRecMii != y.mainRecMii)
            return "MII differs";
    }
    if (a.partition.vectorize != b.partition.vectorize ||
        a.partition.bestCost != b.partition.bestCost)
        return "partition differs";
    return "";
}

namespace
{

/** Cells a memory image over `arrays` holds, guards excluded. */
double
cellsOf(const ArrayTable &arrays)
{
    double cells = 0;
    for (ArrayId a = 0; a < arrays.size(); ++a)
        cells += static_cast<double>(arrays[a].size);
    return cells;
}

} // anonymous namespace

void
clearCompileCache()
{
    // The benchmark must keep building once the cache is gone.
#if __has_include("driver/compilecache.hh")
    compileCacheClear();
#endif
}

Reference::Reference(Tracer *tracer, const Loop &loop,
                     const ArrayTable &source, const Machine &machine,
                     const LiveEnv &liveIns, int64_t trip,
                     uint64_t memSeed)
    : arrays(source)
{
    {
        Scope s(tracer, "sim.mem_setup");
        mem.emplace(arrays);
        mem->fillPattern(memSeed);
        if (tracer != nullptr)
            tracer->count("sim.mem_cells", cellsOf(arrays));
    }
    Scope s(tracer, "sim.reference");
    Expected<ExecResult> run =
        tryRunReference(loop, arrays, machine, *mem, liveIns, trip);
    if (run.ok())
        result = run.takeValue();
    else
        error = "reference run failed: " + run.status().str();
}

Checked
runAndCheck(Tracer *tracer, const CompiledProgram &program,
            const Loop &loop, const ArrayTable &arrays,
            const Machine &machine, const LiveEnv &liveIns, int64_t trip,
            uint64_t memSeed, const DriverOptions &options,
            const Reference &ref, bool checkSchedules)
{
    Checked out;
    if (!ref.error.empty()) {
        out.failure = ref.error;
        return out;
    }
    if (arrays.size() != ref.arrays.size()) {
        out.wrong = "compiled program added arrays the reference lacks";
        return out;
    }
    if (checkSchedules) {
        for (const CompiledLoop &cl : program.loops) {
            for (int which = 0; which < 2; ++which) {
                const Loop &lowered = which == 0 ? cl.main : cl.cleanup;
                const ModuloSchedule &sched =
                    which == 0 ? cl.mainSchedule : cl.cleanupSchedule;
                Scope graph_span(tracer, "analysis.depgraph");
                DepGraph graph(arrays, lowered, machine);
                if (tracer != nullptr)
                    tracer->count(
                        "analysis.depgraph_edges",
                        static_cast<double>(graph.edges().size()));
                Scope s(tracer, "pipeline.checker");
                std::string why =
                    validateSchedule(lowered, graph, machine, sched);
                if (!why.empty()) {
                    out.wrong = "schedule checker: " + why;
                    return out;
                }
            }
        }
    }

    ProgramPlans plans;
    {
        Scope s(tracer, "sim.plan");
        plans = planCompiled(program, machine);
    }
    std::optional<Expected<ExecResult>> run;
    {
        Scope s(tracer, "sim.mem_setup");
        MemoryImage mem(arrays);
        mem.fillPattern(memSeed);
        if (tracer != nullptr)
            tracer->count("sim.mem_cells", cellsOf(arrays));
        ExecLimits limits;
        limits.watchdogFactor = options.scheduling.watchdogFactor;
        {
            Scope r(tracer, "sim.run");
            run.emplace(tryRunCompiled(program, arrays, machine, mem,
                                       liveIns, trip, limits, &plans));
        }
        if (!run->ok()) {
            out.failure = "pipelined run failed: " + run->status().str();
            return out;
        }
        out.cycles = run->value().cycles;
        if (tracer != nullptr)
            tracer->count("sim.run_cycles",
                          static_cast<double>(out.cycles));
        Scope d(tracer, "sim.verify_diff");
        std::string diff = mem.diff(*ref.mem);
        if (!diff.empty()) {
            out.wrong = "memory diverged: " + diff;
            return out;
        }
    }
    const LiveEnv &env = run->value().env;
    for (ValueId v : loop.liveOuts) {
        const std::string &name = loop.valueInfo(v).name;
        auto want = ref.result.env.find(name);
        if (want == ref.result.env.end())
            continue;
        auto got = env.find(name);
        if (got == env.end() || !(got->second == want->second)) {
            out.wrong = "live-out '" + name + "' diverged";
            return out;
        }
    }
    return out;
}

} // namespace perfbench
