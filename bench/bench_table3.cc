/**
 * @file
 * Regenerates the paper's Table 3: for every resource-limited loop,
 * does selective vectorization find a ResMII (and final II) better
 * than, equal to, or worse than the best competing technique (modulo
 * scheduling, traditional, full)?
 *
 * Run with --verbose for the per-loop raw values (also the calibration
 * view for the synthetic workloads).
 */

#include <algorithm>
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
    int loops;
    int resBetter, resEqual, resWorse;
    int iiBetter, iiEqual, iiWorse;
};

// Loop counts are the paper's; our suites model a handful of hot
// loops each, so only the better/equal/worse *tendency* transfers.
const PaperRow kPaper[] = {
    {"093.nasa7", 30, 9, 21, 0, 8, 21, 1},
    {"101.tomcatv", 6, 5, 1, 0, 5, 1, 0},
    {"103.su2cor", 38, 27, 11, 0, 27, 11, 0},
    {"104.hydro2d", 67, 23, 44, 0, 23, 44, 0},
    {"125.turb3d", 12, 4, 8, 0, 4, 7, 1},
    {"146.wave5", 133, 57, 76, 0, 51, 73, 9},
    {"171.swim", 14, 5, 9, 0, 5, 9, 0},
    {"172.mgrid", 16, 9, 7, 0, 9, 7, 0},
    {"301.apsi", 61, 18, 42, 1, 17, 39, 5},
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace selvec;
    BenchCli cli = BenchCli::parse(argc, argv);
    bool verbose = std::find(cli.rest.begin(), cli.rest.end(),
                             "--verbose") != cli.rest.end();

    Machine machine = paperMachine();
    JsonValue doc = benchDocument("bench_table3", cli.mode());
    JsonValue suites = JsonValue::array();
    const double eps = 1e-9;

    std::printf("Table 3: loops where selective vectorization beats / "
                "matches / trails the best competing technique\n");
    std::printf("%-14s %6s  %-23s %-23s   paper(ResMII, II)\n",
                "Benchmark", "loops", "ResMII better/equal/worse",
                "II better/equal/worse");

    for (const PaperRow &row : kPaper) {
        Suite suite = makeSuite(row.name);
        if (cli.quick)
            applyQuickMode(suite);
        EvaluateOptions eopt = cli.evalOptions();
        SuiteReport base =
            evaluateSuite(suite, machine, Technique::ModuloOnly, eopt);
        SuiteReport trad = evaluateSuite(suite, machine,
                                         Technique::Traditional, eopt);
        SuiteReport full =
            evaluateSuite(suite, machine, Technique::Full, eopt);
        SuiteReport sel =
            evaluateSuite(suite, machine, Technique::Selective, eopt);

        int rb = 0, re = 0, rw = 0, ib = 0, ie = 0, iw = 0;
        int counted = 0;
        for (size_t i = 0; i < sel.loops.size(); ++i) {
            // The paper reports resource-limited loops only.
            if (!base.loops[i].resourceLimited)
                continue;
            ++counted;
            double best_res =
                std::min({base.loops[i].resMiiPerIter,
                          trad.loops[i].resMiiPerIter,
                          full.loops[i].resMiiPerIter});
            double best_ii = std::min({base.loops[i].iiPerIter,
                                       trad.loops[i].iiPerIter,
                                       full.loops[i].iiPerIter});
            double s_res = sel.loops[i].resMiiPerIter;
            double s_ii = sel.loops[i].iiPerIter;
            (s_res < best_res - eps   ? rb
             : s_res > best_res + eps ? rw
                                      : re)++;
            (s_ii < best_ii - eps   ? ib
             : s_ii > best_ii + eps ? iw
                                    : ie)++;

            if (verbose) {
                std::printf(
                    "    %-20s res %5.2f/%5.2f/%5.2f/%5.2f  "
                    "ii %5.2f/%5.2f/%5.2f/%5.2f (base/trad/full/sel)\n",
                    base.loops[i].name.c_str(),
                    base.loops[i].resMiiPerIter,
                    trad.loops[i].resMiiPerIter,
                    full.loops[i].resMiiPerIter, s_res,
                    base.loops[i].iiPerIter, trad.loops[i].iiPerIter,
                    full.loops[i].iiPerIter, s_ii);
            }
        }
        std::printf("%-14s %6d  %5d /%5d /%5d      %5d /%5d /%5d       "
                    "(%d/%d/%d, %d/%d/%d of %d)\n",
                    row.name, counted, rb, re, rw, ib, ie, iw,
                    row.resBetter, row.resEqual, row.resWorse,
                    row.iiBetter, row.iiEqual, row.iiWorse, row.loops);

        JsonValue entry = JsonValue::object();
        entry.set("suite", suite.name);
        entry.set("resource_limited_loops",
                  static_cast<int64_t>(counted));
        JsonValue tallies = JsonValue::object();
        tallies.set("res_mii_better", static_cast<int64_t>(rb));
        tallies.set("res_mii_equal", static_cast<int64_t>(re));
        tallies.set("res_mii_worse", static_cast<int64_t>(rw));
        tallies.set("ii_better", static_cast<int64_t>(ib));
        tallies.set("ii_equal", static_cast<int64_t>(ie));
        tallies.set("ii_worse", static_cast<int64_t>(iw));
        entry.set("selective_vs_best", std::move(tallies));
        // Entries 0..2: traditional, full, selective (position is
        // part of the schema).
        entry.set("comparison",
                  jsonOfSuiteComparison(base, {trad, full, sel}));
        suites.append(std::move(entry));
    }
    doc.set("suites", std::move(suites));
    finishBenchJson(cli, doc);
    return 0;
}
