/**
 * @file
 * The optimality-gap audit: the KL partitioning heuristic measured
 * against the exact branch-and-bound oracle (core/partition_exact).
 *
 * Two populations are audited on the Table 1 machine (VL 2):
 *
 *  - the six .lir kernels, where the oracle must PROVE optimality
 *    (exhaust its search space within the default node budget) and
 *    the exact-strategy compile must stay checker-clean, match the
 *    reference interpreter bit-for-bit, and achieve an II no worse
 *    than the KL compile's;
 *  - every loop of the nine Table 2 workload suites, where the
 *    per-suite cost totals and gap counts quantify how far the
 *    paper's heuristic sits from the provable optimum of its own
 *    objective.
 *
 * All emitted numbers are deterministic functions of the kernels and
 * suites — no simulation cycles, no wall clock — so CI asserts the
 * whole document exactly unchanged against the checked-in
 * BENCH_optgap.json via tools/bench_compare.py --counters.
 *
 * Exit status: 0 when every invariant held (exact <= KL everywhere,
 * kernels proven, exact II <= KL II, bitwise-verified execution);
 * 1 otherwise.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/depgraph.hh"
#include "analysis/vectorizable.hh"
#include "bench_common.hh"
#include "core/partition.hh"
#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"

namespace
{

using namespace selvec;

const std::vector<std::string> &
kernelFiles()
{
    static const std::vector<std::string> kernels = {
        "butterfly.lir", "cmul.lir",   "dot.lir",
        "saxpy.lir",     "search.lir", "stencil5.lir",
    };
    return kernels;
}

std::string
readKernel(const std::string &name)
{
    std::string path = std::string(SELVEC_KERNEL_DIR) + "/" + name;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(2);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Every named live-in bound to a small default (explore.cpp's
 *  convention: f64 0.5, i64 3). */
LiveEnv
defaultLiveIns(const Loop &loop)
{
    LiveEnv env;
    for (ValueId v : loop.liveIns) {
        env[loop.valueInfo(v).name] =
            loop.typeOf(v) == Type::F64 ? RtVal::scalarF(0.5)
                                        : RtVal::scalarI(3);
    }
    return env;
}

/** The KL-vs-exact differential for one loop: two partition runs
 *  sharing one analysis. */
struct LoopGap
{
    PartitionResult kl;
    PartitionResult exact;
};

LoopGap
partitionBothWays(const Loop &loop, const ArrayTable &arrays,
                  const Machine &machine,
                  const PartitionOptions &base)
{
    DepGraph graph(arrays, loop, machine);
    VectAnalysis va = analyzeVectorizable(loop, graph, machine);
    LoopGap gap;
    PartitionOptions popt = base;
    popt.strategy = PartitionStrategy::Kl;
    gap.kl = partitionOps(loop, va, machine, popt);
    popt.strategy = PartitionStrategy::Exact;
    gap.exact = partitionOps(loop, va, machine, popt);
    return gap;
}

/** Compile Selective under one strategy; fatal-free. */
Expected<CompiledProgram>
compileWith(const Loop &loop, ArrayTable &arrays,
            const Machine &machine, const BenchCli &cli,
            PartitionStrategy strategy)
{
    EvaluateOptions eo = cli.evalOptions();
    DriverOptions options = eo.driver;
    options.partition.strategy = strategy;
    return tryCompileLoop(loop, arrays, machine,
                          Technique::Selective, options);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace selvec;
    BenchCli cli = BenchCli::parse(argc, argv);
    Machine machine = paperMachine();
    PartitionOptions base = cli.evalOptions().driver.partition;
    bool failed = false;

    JsonValue doc = benchDocument("bench_optgap", cli.mode());

    // -----------------------------------------------------------------
    // The six kernels: proof required.
    std::printf("Optimality gap, kernels (paper machine, VL %d)\n",
                machine.vectorLength);
    std::printf("%-12s %8s %8s %5s %7s %9s %8s %8s\n", "kernel",
                "kl_cost", "exact", "gap", "proven", "nodes",
                "kl_ii", "exact_ii");

    JsonValue json_kernels = JsonValue::array();
    int proven_kernels = 0;
    for (const std::string &file : kernelFiles()) {
        ParseResult pr = parseLir(readKernel(file));
        if (!pr.ok) {
            std::fprintf(stderr, "%s: parse error: %s\n",
                         file.c_str(), pr.error.c_str());
            return 2;
        }
        const Loop &loop = pr.module.loops.front();
        LoopGap gap =
            partitionBothWays(loop, pr.module.arrays, machine, base);

        // Both strategies compiled end to end: the in-pipeline checker
        // validates each schedule, and the exact program's run below is
        // checked against the reference interpreter bit for bit.
        ArrayTable arrays_kl = pr.module.arrays;
        Expected<CompiledProgram> kl_prog = compileWith(
            loop, arrays_kl, machine, cli, PartitionStrategy::Kl);
        ArrayTable arrays_ex = pr.module.arrays;
        Expected<CompiledProgram> ex_prog = compileWith(
            loop, arrays_ex, machine, cli, PartitionStrategy::Exact);

        double kl_ii = 0.0, exact_ii = 0.0;
        if (!kl_prog.ok() || !ex_prog.ok()) {
            std::fprintf(stderr, "%s: compile failed: %s\n",
                         file.c_str(),
                         (!kl_prog.ok() ? kl_prog : ex_prog)
                             .status().str().c_str());
            failed = true;
        } else {
            kl_ii = kl_prog.value().iiPerIteration();
            exact_ii = ex_prog.value().iiPerIteration();

            MemoryImage mem(arrays_ex);
            mem.fillPattern(17);
            Expected<ExecResult> run = tryRunVerified(
                ex_prog.value(), loop, arrays_ex, machine, mem,
                defaultLiveIns(loop), 64);
            if (!run.ok()) {
                std::fprintf(stderr, "%s: exact program: %s\n",
                             file.c_str(), run.status().str().c_str());
                failed = true;
            }
        }

        const PartitionResult &ex = gap.exact;
        if (ex.bestCost > gap.kl.bestCost || ex.exactGap < 0 ||
            !ex.exactProven || exact_ii > kl_ii) {
            failed = true;
        }
        proven_kernels += ex.exactProven ? 1 : 0;

        std::printf("%-12s %8lld %8lld %5lld %7s %9lld %8.2f %8.2f\n",
                    file.c_str(),
                    static_cast<long long>(gap.kl.bestCost),
                    static_cast<long long>(ex.bestCost),
                    static_cast<long long>(ex.exactGap),
                    ex.exactProven ? "yes" : "NO",
                    static_cast<long long>(ex.exactNodes),
                    kl_ii, exact_ii);

        JsonValue entry = JsonValue::object();
        entry.set("kernel", file);
        entry.set("kl_cost", gap.kl.bestCost);
        entry.set("exact_cost", ex.bestCost);
        entry.set("gap", ex.exactGap);
        entry.set("proven", ex.exactProven);
        entry.set("nodes", ex.exactNodes);
        entry.set("pruned", ex.exactPruned);
        entry.set("kl_ii_per_iter", kl_ii);
        entry.set("exact_ii_per_iter", exact_ii);
        json_kernels.append(std::move(entry));
    }
    doc.set("kernels", std::move(json_kernels));
    doc.set("kernels_proven", proven_kernels);

    // -----------------------------------------------------------------
    // The nine suites: the measured heuristic gap in the wild.
    std::printf("\nOptimality gap, Table 2 suites\n");
    std::printf("%-10s %6s %7s %5s %9s %10s %5s\n", "suite", "loops",
                "proven", "gaps", "kl_cost", "exact_cost", "gap");

    JsonValue json_suites = JsonValue::array();
    for (const Suite &suite : allSuites()) {
        int64_t loops = 0, proven = 0, gap_loops = 0;
        int64_t kl_total = 0, exact_total = 0, gap_total = 0;
        for (const WorkloadLoop &wl : suite.loops) {
            LoopGap gap = partitionBothWays(
                suite.loopOf(wl), suite.module.arrays, machine, base);
            ++loops;
            proven += gap.exact.exactProven ? 1 : 0;
            gap_loops += gap.exact.exactGap > 0 ? 1 : 0;
            kl_total += gap.kl.bestCost;
            exact_total += gap.exact.bestCost;
            gap_total += gap.exact.exactGap;
            if (gap.exact.bestCost > gap.kl.bestCost ||
                gap.exact.exactGap < 0)
                failed = true;
        }
        std::printf("%-10s %6lld %7lld %5lld %9lld %10lld %5lld\n",
                    suite.name.c_str(),
                    static_cast<long long>(loops),
                    static_cast<long long>(proven),
                    static_cast<long long>(gap_loops),
                    static_cast<long long>(kl_total),
                    static_cast<long long>(exact_total),
                    static_cast<long long>(gap_total));

        JsonValue entry = JsonValue::object();
        entry.set("suite", suite.name);
        entry.set("loops", loops);
        entry.set("proven", proven);
        entry.set("gap_loops", gap_loops);
        entry.set("kl_cost", kl_total);
        entry.set("exact_cost", exact_total);
        entry.set("gap", gap_total);
        json_suites.append(std::move(entry));
    }
    doc.set("suites", std::move(json_suites));

    finishBenchJson(cli, doc);
    if (failed)
        std::printf("\nOPTIMALITY-GAP AUDIT FAILED\n");
    return failed ? 1 : 0;
}
