/**
 * @file
 * Regenerates the paper's Figure 1: the dot product on the 3-slot
 * example machine (one vector instruction per cycle, unit latencies,
 * free scalar<->vector communication).
 *
 * Expected per-original-iteration IIs:
 *   modulo scheduling (non-unrolled)  : 2.0   (Figure 1c)
 *   traditional (distributed) loops   : 3.0   (Figure 1d)
 *   full vectorization, loop intact   : 1.5   (Figure 1e)
 *   selective vectorization           : 1.0   (Figure 1f)
 *
 * The kernels are printed in the figure's style; numbers in
 * parentheses are the original iteration each operation belongs to.
 */

#include <cstdio>

#include "analysis/depgraph.hh"
#include "bench_common.hh"
#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "pipeline/lowering.hh"
#include "pipeline/modsched.hh"
#include "pipeline/printer.hh"
#include "workloads/workloads.hh"

namespace
{

/** Schedule a loop body directly (no unrolling) for Figure 1(c). */
void
printDirect(const selvec::Loop &loop, const selvec::ArrayTable &arrays,
            const selvec::Machine &machine, const char *title)
{
    using namespace selvec;
    Loop lowered = lowerForScheduling(loop, machine);
    DepGraph graph(arrays, lowered, machine);
    ScheduleResult sr = moduloSchedule(lowered, graph, machine);
    std::printf("--- %s ---\n%s\n%s\n", title,
                formatScheduleSummary(lowered, sr.schedule).c_str(),
                formatKernel(lowered, machine, sr.schedule).c_str());
}

selvec::CompiledProgram
printTechnique(const selvec::Loop &loop,
               const selvec::ArrayTable &base_arrays,
               const selvec::Machine &machine,
               selvec::Technique technique, const char *title)
{
    using namespace selvec;
    ArrayTable arrays = base_arrays;
    CompiledProgram program =
        compileLoop(loop, arrays, machine, technique);
    std::printf("--- %s ---\n", title);
    std::printf("per-original-iteration II: %.2f\n",
                program.iiPerIteration());
    for (const CompiledLoop &cl : program.loops) {
        std::printf("%s\n%s\n",
                    formatScheduleSummary(cl.main,
                                          cl.mainSchedule).c_str(),
                    formatKernel(cl.main, machine,
                                 cl.mainSchedule).c_str());
    }
    return program;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace selvec;
    BenchCli cli = BenchCli::parse(argc, argv);
    Suite suite = dotProductSuite();
    const Loop &dot = suite.module.loops.front();
    Machine machine = toyMachine();

    std::printf("Figure 1: dot product on the 3-slot example machine\n\n");
    printDirect(dot, suite.module.arrays, machine,
                "Figure 1(c): modulo scheduling, II 2.0");
    CompiledProgram trad = printTechnique(
        dot, suite.module.arrays, machine, Technique::Traditional,
        "Figure 1(d): traditional vectorization "
        "(distribution), II 2.0 + 1.0 = 3.0");
    CompiledProgram full = printTechnique(
        dot, suite.module.arrays, machine, Technique::Full,
        "Figure 1(e): full vectorization, loop intact, "
        "II 1.5");
    CompiledProgram sel = printTechnique(
        dot, suite.module.arrays, machine, Technique::Selective,
        "Figure 1(f): selective vectorization, II 1.0");

    JsonValue doc = benchDocument("bench_figure1", cli.mode());
    JsonValue programs = JsonValue::array();
    programs.append(jsonOfCompiledProgram(trad));
    programs.append(jsonOfCompiledProgram(full));
    programs.append(jsonOfCompiledProgram(sel));
    doc.set("programs", std::move(programs));
    finishBenchJson(cli, doc);
    return 0;
}
