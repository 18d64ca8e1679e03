#include "workloads.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

#include "analysis/depgraph.hh"
#include "analysis/vectorizable.hh"
#include "core/partition.hh"
#include "driver/evaluate.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "replay.hh"
#include "support/random.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace selvec;

namespace
{

/** The memory pattern evaluateSuite fills for a suite loop. */
uint64_t
suiteMemSeed(const WorkloadLoop &wl)
{
    return 0xC0FFEEULL ^ static_cast<uint64_t>(wl.loopIndex);
}

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T> &values, Rng &rng)
{
    for (size_t i = values.size(); i > 1; --i)
        std::swap(values[i - 1],
                  values[static_cast<size_t>(
                      rng.range(0, static_cast<int64_t>(i) - 1))]);
}

void
addLoopSignature(Outcome &out, double iiPerIteration, int64_t cycles)
{
    out.signature.push_back(std::bit_cast<int64_t>(iiPerIteration));
    out.signature.push_back(cycles);
}

/**
 * Compile `loop` through tryCompileLoop, run the program and check it
 * against the reference interpreter. Under a tracer the compile is
 * also replayed stage by stage and must give the same program.
 * Returns the program's cycles, or nullopt after recording why in
 * `out`.
 */
std::optional<int64_t>
compileRunCheck(Tracer *t, const Loop &loop, const ArrayTable &source,
                const Machine &machine, Technique technique,
                const DriverOptions &options, const LiveEnv &liveIns,
                int64_t trip, uint64_t memSeed, bool checkSchedules,
                Outcome &out, CompiledProgram *keep = nullptr)
{
    ArrayTable arrays = source;
    std::optional<Expected<CompiledProgram>> program;
    {
        Scope s(t, "driver.compile");
        program.emplace(
            tryCompileLoop(loop, arrays, machine, technique, options));
    }
    if (!program->ok()) {
        if (t != nullptr)
            t->count("driver.compile_failures", 1);
        out.failure = loop.name + " / " + techniqueName(technique) +
                      ": " + program->status().str();
        return std::nullopt;
    }
    if (t != nullptr) {
        ArrayTable replayArrays = source;
        Expected<CompiledProgram> replayed = replayCompile(
            *t, loop, replayArrays, machine, technique, options);
        std::string why = replayed.ok()
                              ? compareCompiled(program->value(),
                                                replayed.value())
                              : replayed.status().str();
        if (!why.empty()) {
            out.wrong = loop.name + " / " + techniqueName(technique) +
                        ": stage replay disagrees: " + why;
            return std::nullopt;
        }
    }
    Reference ref(t, loop, arrays, machine, liveIns, trip, memSeed);
    Checked c = runAndCheck(t, program->value(), loop, arrays, machine,
                            liveIns, trip, memSeed, options, ref,
                            checkSchedules);
    std::string where = loop.name + " / " + techniqueName(technique) + ": ";
    if (!c.wrong.empty()) {
        out.wrong = where + c.wrong;
        return std::nullopt;
    }
    if (!c.failure.empty()) {
        out.failure = where + c.failure;
        return std::nullopt;
    }
    addLoopSignature(out, program->value().iiPerIteration(), c.cycles);
    if (keep != nullptr)
        *keep = program->takeValue();
    return c.cycles;
}

// ---------------------------------------------------------------------
// paper_tables: the evaluateSuite calls behind Tables 2, 4 and 5.

struct SuiteCall
{
    int table = 2;
    size_t suite = 0;
    Technique technique = Technique::ModuloOnly;
    bool aligned = false;       ///< Table 5's aligned machine
    bool ignoreComm = false;    ///< Table 4's communication-blind cost
};

class PaperTables : public Workload
{
  public:
    explicit PaperTables(int rounds) : passes(rounds) {}

    void
    setup(uint64_t seed, Tracer *tracer) override
    {
        suites.clear();
        for (const std::string &name : suiteNames()) {
            Scope s(tracer, "workloads.setup");
            suites.push_back(makeSuite(name));
        }
        // The seed orders the suites within each table; the suites
        // themselves are the paper's.
        Rng rng(seed);
        pass.clear();
        for (int table : {2, 4, 5}) {
            std::vector<size_t> order(suites.size());
            for (size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            shuffle(order, rng);
            for (size_t s : order) {
                auto call = [&](Technique t, bool aligned, bool ignore) {
                    pass.push_back({table, s, t, aligned, ignore});
                };
                if (table == 2) {
                    call(Technique::ModuloOnly, false, false);
                    call(Technique::Traditional, false, false);
                    call(Technique::Full, false, false);
                    call(Technique::Selective, false, false);
                } else if (table == 4) {
                    call(Technique::ModuloOnly, false, false);
                    call(Technique::Selective, false, false);
                    call(Technique::Selective, false, true);
                } else {
                    call(Technique::ModuloOnly, false, false);
                    call(Technique::Selective, false, false);
                    call(Technique::ModuloOnly, true, false);
                    call(Technique::Selective, true, false);
                }
            }
        }
        paper = paperMachine();
        aligned = paperMachine();
        aligned.alignment = AlignPolicy::AssumeAligned;
    }

    size_t requests() const override { return pass.size(); }
    int rounds() const override { return passes; }
    bool evaluatesSuites() const override { return true; }

    void
    beforeRequest(size_t i) override
    {
        // Each table starts cold, as its own bench process would.
        if (i == 0 || pass[i].table != pass[i - 1].table)
            clearCompileCache();
    }

    Outcome
    run(size_t i) override
    {
        const SuiteCall &c = pass[i];
        SuiteReport report = evaluateSuite(suites[c.suite], machineOf(c),
                                           c.technique, optionsOf(c));
        Outcome out = outcomeOf(c);
        for (const LoopReport &lr : report.loops)
            addLoopSignature(out, lr.iiPerIter, lr.cyclesPerInvocation);
        if (!report.failures.empty())
            out.failure = report.failures.front().name + ": " +
                          report.failures.front().status.str();
        setCycles(out, c, report.totalCycles);
        return out;
    }

    Outcome
    replay(size_t i, Tracer &t) override
    {
        const SuiteCall &c = pass[i];
        const Suite &suite = suites[c.suite];
        const Machine &machine = machineOf(c);
        EvaluateOptions options = optionsOf(c);
        Outcome out = outcomeOf(c);
        int64_t total = 0;
        for (const WorkloadLoop &wl : suite.loops) {
            // evaluateSuite's per-loop options: the expansion buffer
            // covers the trip count.
            DriverOptions dopt = options.driver;
            dopt.expansionSize =
                std::max<int64_t>(dopt.expansionSize, wl.tripCount + 8);
            Outcome loopOut;
            std::optional<int64_t> cycles = compileRunCheck(
                &t, suite.loopOf(wl), suite.module.arrays, machine,
                c.technique, dopt, wl.liveIns, wl.tripCount,
                suiteMemSeed(wl), false, loopOut);
            if (!loopOut.wrong.empty() && out.wrong.empty())
                out.wrong = loopOut.wrong;
            if (!loopOut.failure.empty() && out.failure.empty())
                out.failure = loopOut.failure;
            if (!cycles)
                continue;
            out.signature.insert(out.signature.end(),
                                 loopOut.signature.begin(),
                                 loopOut.signature.end());
            total += *cycles * wl.invocations;
        }
        setCycles(out, c, total);
        return out;
    }

  private:
    const Machine &
    machineOf(const SuiteCall &c) const
    {
        return c.aligned ? aligned : paper;
    }

    static EvaluateOptions
    optionsOf(const SuiteCall &c)
    {
        EvaluateOptions options;
        options.jobs = 1;
        options.verify = true;
        options.driver.partition.cost.considerCommunication = !c.ignoreComm;
        return options;
    }

    /** Table 2's ModuloOnly and Selective calls of one suite pair up
     *  for selective_speedup. */
    Outcome
    outcomeOf(const SuiteCall &c) const
    {
        Outcome out;
        out.verdicts = 1;
        if (c.table == 2 && (c.technique == Technique::ModuloOnly ||
                             c.technique == Technique::Selective))
            out.pairKey = suiteNames()[c.suite];
        return out;
    }

    static void
    setCycles(Outcome &out, const SuiteCall &c, int64_t total)
    {
        out.simCycles = total;
        if (!out.pairKey.empty()) {
            if (c.technique == Technique::ModuloOnly)
                out.moduloCycles = total;
            else
                out.selectiveCycles = total;
        }
        out.proven = out.failure.empty() && out.wrong.empty() ? 1 : 0;
    }

    int passes;
    std::vector<Suite> suites;
    std::vector<SuiteCall> pass;
    Machine paper;
    Machine aligned;
};

// ---------------------------------------------------------------------
// compile_unique: a stream of distinct generated loops, as LIR text.

struct TextLoop
{
    std::string lir;
    LiveEnv liveIns;
    int64_t trip = 0;
    uint64_t memSeed = 0;
};

class CompileUnique : public Workload
{
  public:
    explicit CompileUnique(size_t count) : count(count) {}

    /**
     * Op counts and trip counts are stratified: loop k of n gets the
     * k-th evenly spaced value of each range, and the seed draws the
     * loops' shapes and pairs the two lists. Compile time follows op
     * count, so every seed's stream costs about the same while no two
     * streams share a loop.
     */
    void
    setup(uint64_t seed, Tracer *tracer) override
    {
        Rng rng(seed);
        std::vector<int64_t> trips = spread(16, 64, rng);
        inputs.clear();
        inputs.reserve(count);
        for (int64_t ops : spread(24, 96, rng)) {
            GeneratorOptions gopt;
            gopt.minOps = gopt.maxOps = static_cast<int>(ops);
            gopt.maxTrip = 64;
            TextLoop in;
            {
                Scope s(tracer, "workloads.setup");
                GeneratedLoop gen = generateLoop(rng, gopt);
                in.lir = writeLir(gen.module);
                in.liveIns = std::move(gen.liveIns);
            }
            in.trip = trips[inputs.size()];
            in.memSeed = rng.next();
            inputs.push_back(std::move(in));
        }
    }

    size_t requests() const override { return inputs.size(); }

    Outcome run(size_t i) override { return serve(nullptr, i); }
    Outcome replay(size_t i, Tracer &t) override { return serve(&t, i); }

  private:
    Outcome
    serve(Tracer *t, size_t i)
    {
        const TextLoop &in = inputs[i];
        Outcome out;
        out.verdicts = 1;
        out.pairKey = std::to_string(i);
        std::optional<Expected<Module>> module;
        {
            Scope s(t, "lir.parse");
            module.emplace(tryParseLir(in.lir));
        }
        if (t != nullptr)
            t->count("lir.parse_bytes", static_cast<double>(in.lir.size()));
        if (!module->ok() || module->value().loops.empty()) {
            out.failure = module->ok() ? "no loop parsed"
                                       : module->status().str();
            return out;
        }
        const Module &m = module->value();
        const Loop &loop = m.loops.front();
        DriverOptions options;
        std::optional<int64_t> modulo = compileRunCheck(
            t, loop, m.arrays, machine, Technique::ModuloOnly, options,
            in.liveIns, in.trip, in.memSeed, true, out);
        if (!modulo)
            return out;
        std::optional<int64_t> selective = compileRunCheck(
            t, loop, m.arrays, machine, Technique::Selective, options,
            in.liveIns, in.trip, in.memSeed, true, out);
        if (!selective)
            return out;
        out.moduloCycles = *modulo;
        out.selectiveCycles = *selective;
        out.simCycles = *modulo + *selective;
        out.proven = 1;
        return out;
    }

    /** `count` evenly spaced values from [lo, hi], in seeded order. */
    std::vector<int64_t>
    spread(int64_t lo, int64_t hi, Rng &rng) const
    {
        std::vector<int64_t> values(count);
        for (size_t k = 0; k < count; ++k)
            values[k] = lo + static_cast<int64_t>(
                                 k * static_cast<size_t>(hi - lo) /
                                 std::max<size_t>(count - 1, 1));
        shuffle(values, rng);
        return values;
    }

    size_t count;
    std::vector<TextLoop> inputs;
    Machine machine = paperMachine();
};

// ---------------------------------------------------------------------
// optgap_exact: KL against the exact partition oracle on fuzz-sized
// loops, round-robin over the four stock machines.

struct FuzzLoop
{
    GeneratedLoop gen;
    size_t machine = 0;
    uint64_t memSeed = 0;
};

class OptgapExact : public Workload
{
  public:
    explicit OptgapExact(size_t count) : count(count) {}

    /**
     * The loops are those of fuzz seeds 1..count (selvec_fuzz
     * --optgap's generator stream) and stay the same for every seed;
     * the seed orders them and draws their memory. A few loops exhaust
     * the exact search's node budget and take most of the run, so a
     * population drawn afresh per seed would swing the run's
     * throughput with how many of those it happened to draw.
     */
    void
    setup(uint64_t seed, Tracer *tracer) override
    {
        Rng rng(seed);
        std::vector<size_t> order(count);
        for (size_t k = 0; k < count; ++k)
            order[k] = k;
        shuffle(order, rng);
        inputs.clear();
        inputs.reserve(count);
        for (size_t k : order) {
            FuzzLoop in;
            {
                Scope s(tracer, "workloads.setup");
                Rng loopRng(k + 1);
                in.gen = generateLoop(loopRng);
            }
            in.machine = k % machines.size();
            in.memSeed = rng.next();
            inputs.push_back(std::move(in));
        }
    }

    size_t requests() const override { return inputs.size(); }

    /** Each replay runs the exact search twice; a hundred loops keep
     *  the traced run near a minute. */
    size_t
    tracedRequests() const override
    {
        return std::min<size_t>(inputs.size(), 100);
    }

    Outcome run(size_t i) override { return serve(nullptr, i); }
    Outcome replay(size_t i, Tracer &t) override { return serve(&t, i); }

  private:
    /** Every loop runs this many iterations (within the generator's
     *  default maxTrip). */
    static constexpr int64_t kTrip = 64;

    Outcome
    serve(Tracer *t, size_t i)
    {
        const FuzzLoop &in = inputs[i];
        const Loop &loop = in.gen.loop();
        const ArrayTable &arrays = in.gen.module.arrays;
        const Machine &machine = machines[in.machine];
        Outcome out;
        out.pairKey = std::to_string(i);
        out.verdicts = 1;

        // The separate KL run the exact verdict's klCost must match.
        DriverOptions options;
        PartitionResult kl;
        {
            Scope g(t, "analysis.depgraph");
            DepGraph graph(arrays, loop, machine);
            if (t != nullptr)
                t->count("analysis.depgraph_edges",
                         static_cast<double>(graph.edges().size()));
            VectAnalysis va;
            {
                Scope s(t, "analysis.vectorizable");
                va = analyzeVectorizable(loop, graph, machine,
                                         options.vectorize);
            }
            PartitionOptions popt = options.partition;
            popt.strategy = PartitionStrategy::Kl;
            Scope s(t, "core.partition_kl");
            kl = partitionOps(loop, va, machine, popt);
        }
        if (t != nullptr)
            t->count("core.partition_kl_moves",
                     static_cast<double>(kl.movesEvaluated));

        std::optional<int64_t> modulo = compileRunCheck(
            t, loop, arrays, machine, Technique::ModuloOnly, options,
            in.gen.liveIns, kTrip, in.memSeed, true, out);
        if (!modulo)
            return out;
        DriverOptions exact = options;
        exact.partition.strategy = PartitionStrategy::Exact;
        CompiledProgram program;
        std::optional<int64_t> selective = compileRunCheck(
            t, loop, arrays, machine, Technique::Selective, exact,
            in.gen.liveIns, kTrip, in.memSeed, true, out, &program);
        if (!selective)
            return out;

        const PartitionResult &v = program.partition;
        if (!v.exactUsed || v.bestCost > kl.bestCost ||
            v.klCost != kl.bestCost || v.exactGap != v.klCost - v.bestCost) {
            out.wrong = loop.name + ": exact verdict cost " +
                        std::to_string(v.bestCost) + " (recorded KL " +
                        std::to_string(v.klCost) + ") vs KL run " +
                        std::to_string(kl.bestCost);
            return out;
        }
        out.signature.push_back(v.bestCost);
        out.signature.push_back(v.exactProven ? 1 : 0);
        out.moduloCycles = *modulo;
        out.selectiveCycles = *selective;
        out.simCycles = *modulo + *selective;
        out.proven = v.exactProven ? 1 : 0;
        return out;
    }

    size_t count;
    std::vector<FuzzLoop> inputs;
    std::vector<Machine> machines = {paperMachine(), directMoveMachine(),
                                     wideMachine(), embeddedMachine()};
};

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_tables", "compile_unique", "optgap_exact"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, double seconds, bool shortMode)
{
    // Sizes come from each workload's mean request time on the
    // reference host (4-vCPU VM, Release build), so that a run takes
    // about `seconds`.
    auto sized = [&](double meanRequestS) {
        return std::max<size_t>(
            100, static_cast<size_t>(std::lround(seconds / meanRequestS)));
    };
    if (name == "paper_tables") {
        // One pass of 99 calls takes about 2.3 s.
        int rounds = shortMode ? 1
                               : std::max(3, static_cast<int>(std::lround(
                                                 seconds / 2.3)));
        return std::make_unique<PaperTables>(rounds);
    }
    if (name == "compile_unique")
        return std::make_unique<CompileUnique>(shortMode ? 24 : sized(0.025));
    // optgap_exact's requests take about 0.15 s, but it is sized as if
    // they took 0.1 s: 200 loops at 20 s put 18 or more latencies
    // beyond its p90, and the run takes about 30 s.
    if (name == "optgap_exact")
        return std::make_unique<OptgapExact>(shortMode ? 12 : sized(0.1));
    return nullptr;
}

} // namespace perfbench
