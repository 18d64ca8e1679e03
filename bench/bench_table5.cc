/**
 * @file
 * Regenerates the paper's Table 5: selective vectorization's speedup
 * over modulo scheduling when every vector memory operation is
 * compiled as misaligned (the default: merge with the previous
 * iteration's data) vs when perfect alignment information is assumed
 * (the merge operations disappear from cost analysis and code alike).
 */

#include <cstdio>

#include "bench_common.hh"
#include "driver/evaluate.hh"
#include "machine/machine.hh"
#include "workloads/workloads.hh"

namespace
{

struct PaperRow
{
    const char *name;
    double misaligned;
    double aligned;
};

const PaperRow kPaper[] = {
    {"093.nasa7", 1.04, 1.07},  {"101.tomcatv", 1.38, 1.48},
    {"103.su2cor", 1.15, 1.16}, {"104.hydro2d", 1.03, 1.05},
    {"125.turb3d", 0.95, 0.95}, {"146.wave5", 1.03, 1.04},
    {"171.swim", 1.17, 1.21},   {"172.mgrid", 1.26, 1.26},
    {"301.apsi", 1.02, 1.02},
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace selvec;
    BenchCli cli = BenchCli::parse(argc, argv);
    JsonValue doc = benchDocument("bench_table5", cli.mode());
    JsonValue suites = JsonValue::array();

    std::printf("Table 5: selective vectorization speedup, misaligned "
                "vs aligned vector memory\n");
    std::printf("%-14s %19s %19s\n", "Benchmark", "Misaligned (paper)",
                "Aligned (paper)");

    for (const PaperRow &row : kPaper) {
        Suite suite = makeSuite(row.name);
        if (cli.quick)
            applyQuickMode(suite);

        EvaluateOptions eopt = cli.evalOptions();
        Machine mis = paperMachine();
        SuiteReport base_mis =
            evaluateSuite(suite, mis, Technique::ModuloOnly, eopt);
        SuiteReport sel_mis =
            evaluateSuite(suite, mis, Technique::Selective, eopt);

        Machine ali = paperMachine();
        ali.alignment = AlignPolicy::AssumeAligned;
        SuiteReport base_ali =
            evaluateSuite(suite, ali, Technique::ModuloOnly, eopt);
        SuiteReport sel_ali =
            evaluateSuite(suite, ali, Technique::Selective, eopt);

        std::printf("%-14s %8.2f | %4.2f %11.2f | %4.2f\n", row.name,
                    speedupOver(base_mis, sel_mis), row.misaligned,
                    speedupOver(base_ali, sel_ali), row.aligned);

        // Entry 0: misaligned machine (vs its own baseline); a second
        // comparison object carries the aligned machine.
        JsonValue entry = JsonValue::object();
        entry.set("suite", suite.name);
        entry.set("misaligned",
                  jsonOfSuiteComparison(base_mis, {sel_mis}));
        entry.set("aligned",
                  jsonOfSuiteComparison(base_ali, {sel_ali}));
        suites.append(std::move(entry));
    }
    doc.set("suites", std::move(suites));
    finishBenchJson(cli, doc);
    return 0;
}
