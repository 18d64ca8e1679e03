/**
 * @file
 * selvec_perfbench: the wall-clock benchmark driver.
 *
 *   selvec_perfbench --workload W --seed N --seconds S --trace 0|1
 *                    [--short] [--trace-out FILE] [--commit ID]
 *
 * Untraced (--trace 0): set the workload up several times from the
 * seed (setup_s is the median), then serve its requests closed-loop,
 * one at a time, for the workload's number of rounds (sized from S).
 * Prints every end-to-end metric by name and unit.
 *
 * Traced (--trace 1): serve the workload's leading requests untraced, then
 * replay the same requests layer by layer under benchmark-side spans,
 * require the replay to reproduce every II and cycle count, and print
 * the per-layer metrics. Spans are written to --trace-out at exit.
 *
 * Times are scaled for host speed (hostspeed.hh); the human-readable
 * lines give the unscaled ones too. --short serves a fixed small
 * request set once and ignores S; the self-test (run.py --selftest)
 * uses it.
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics. The exit status is 0 only when every
 * output passed its oracle (and, traced, the replay matched); 2 for a
 * usage error or a run refused by the hygiene checks.
 */

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#if __has_include("driver/diskcache.hh")
#include "driver/diskcache.hh"
#endif
#include "hostspeed.hh"
#include "replay.hh"
#include "spans.hh"
#include "support/checkmode.hh"
#include "support/faultinject.hh"
#include "support/parsenum.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    bool shortMode = false;
    std::string traceOut;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "selvec_perfbench: %s\n"
                 "usage: selvec_perfbench --workload "
                 "paper_tables|compile_unique|optgap_exact --seed N\n"
                 "       --seconds S --trace 0|1 [--short] "
                 "[--trace-out FILE] [--commit ID]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        auto count = [&](const std::string &text) {
            int64_t n = 0;
            if (!selvec::parseNonNegInt(text.c_str(), &n))
                usage((arg + ": expected a non-negative integer, got '" +
                       text + "'")
                          .c_str());
            return n;
        };
        if (arg == "--workload") {
            args.workload = value();
        } else if (arg == "--seed") {
            args.seed = static_cast<uint64_t>(count(value()));
            haveSeed = true;
        } else if (arg == "--seconds") {
            args.seconds = static_cast<double>(count(value()));
            haveSeconds = true;
        } else if (arg == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            args.trace = v == "1";
            haveTrace = true;
        } else if (arg == "--short") {
            args.shortMode = true;
        } else if (arg == "--trace-out") {
            args.traceOut = value();
        } else if (arg == "--commit") {
            args.commit = value();
        } else {
            usage(("unknown argument '" + arg + "'").c_str());
        }
    }
    if (args.workload.empty() || !haveSeed || !haveTrace ||
        (!haveSeconds && !args.shortMode))
        usage("--workload, --seed, --seconds and --trace are required");
    if (!args.shortMode && args.seconds < 1)
        usage("--seconds must be at least 1");
    return args;
}

bool
envSet(const char *var)
{
    const char *v = std::getenv(var);
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/** Why this process must not take measurements ("" when it may). */
std::string
hygieneProblems()
{
    std::string problems;
    auto add = [&](const std::string &p) {
        problems += (problems.empty() ? "" : "; ") + p;
    };
    for (const char *var : {"SELVEC_TRACE", "SELVEC_CHECK_SIM",
                            "SELVEC_CHECK_INCREMENTAL"}) {
        if (envSet(var))
            add(std::string(var) + " is set");
    }
    if (selvec::traceEnabled())
        add("library tracing is on");
    if (selvec::checkSimEnabled() || selvec::checkIncrementalEnabled())
        add("a SELVEC_CHECK_* cross-check is on");
    if (selvec::faultPlanArmed())
        add("a fault plan is armed");
#if __has_include("driver/diskcache.hh")
    if (selvec::diskCacheEnabled())
        add("a disk cache directory is active");
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0)
        add("Debug build");
#ifndef NDEBUG
    add("assertions are compiled in (NDEBUG unset)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    add("sanitized build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
    add("sanitized build");
#endif
#endif
    return problems;
}

void
printFingerprint(const Args &args)
{
    long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::printf("fingerprint: {\"nproc\": %ld, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"commit\": \"%s\", \"jobs\": 1, "
                "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d}\n",
                nproc, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                args.commit.c_str(), args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** The continued fraction of the regularized incomplete beta
 *  function I_x(a, b), by the modified Lentz method. */
double
betaFraction(double a, double b, double x)
{
    auto guard = [](double v) { return std::fabs(v) < 1e-300 ? 1e-300 : v; };
    double c = 1, d = 1 / guard(1 - (a + b) * x / (a + 1)), h = d;
    for (int m = 1; m <= 300; ++m) {
        double even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m));
        d = 1 / guard(1 + even * d);
        c = guard(1 + even / c);
        h *= d * c;
        double odd =
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
        d = 1 / guard(1 + odd * d);
        c = guard(1 + odd / c);
        h *= d * c;
        if (std::fabs(d * c - 1) < 1e-15)
            break;
    }
    return h;
}

/** The regularized incomplete beta function I_x(a, b). */
double
incompleteBeta(double a, double b, double x)
{
    if (x <= 0)
        return 0;
    if (x >= 1)
        return 1;
    double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                            std::lgamma(b) + a * std::log(x) +
                            b * std::log1p(-x));
    if (x < (a + 1) / (a + b + 2))
        return front * betaFraction(a, b, x) / a;
    return 1 - front * betaFraction(b, a, 1 - x) / b;
}

/**
 * Harrell-Davis estimate of the p-quantile: the sum of all order
 * statistics, the i-th of n weighted by the mass that
 * Beta((n+1)p, (n+1)(1-p)) puts on ((i-1)/n, i/n]. Where the samples
 * thin out near the quantile, as in optgap_exact's tail, one order
 * statistic jumps with each request's noise; this weighted sum does
 * not.
 */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double n = static_cast<double>(v.size());
    double a = p * (n + 1), b = (1 - p) * (n + 1);
    double sum = 0, below = 0;
    for (size_t i = 0; i < v.size(); ++i) {
        double upto = incompleteBeta(a, b, static_cast<double>(i + 1) / n);
        sum += (upto - below) * v[i];
        below = upto;
    }
    return sum;
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;   // KiB on Linux
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Print the metrics readably, then the one-line JSON result. */
void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    bool finite = true;
    for (const Metric &m : metrics) {
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        finite = finite && std::isfinite(m.value);
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct && finite ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** The deterministic quality metrics over one round's outputs. */
struct Quality
{
    double simCycles = 0;
    double speedup = 0;
    double provenRatio = 0;
};

Quality
qualityOf(const std::vector<Outcome> &outcomes)
{
    Quality q;
    std::map<std::string, std::pair<double, double>> pairs;
    double verdicts = 0, proven = 0;
    for (const Outcome &o : outcomes) {
        q.simCycles += static_cast<double>(o.simCycles);
        if (!o.pairKey.empty()) {
            pairs[o.pairKey].first += static_cast<double>(o.moduloCycles);
            pairs[o.pairKey].second += static_cast<double>(o.selectiveCycles);
        }
        verdicts += o.verdicts;
        proven += o.proven;
    }
    double logSum = 0;
    int n = 0;
    for (const auto &[key, cycles] : pairs) {
        if (cycles.first > 0 && cycles.second > 0) {
            logSum += std::log(cycles.first / cycles.second);
            ++n;
        }
    }
    q.speedup = n > 0 ? std::exp(logSum / n) : 0;
    q.provenRatio = verdicts > 0 ? proven / verdicts : 0;
    return q;
}

bool
sameOutputs(const Outcome &a, const Outcome &b)
{
    return a.failure.empty() == b.failure.empty() &&
           a.wrong.empty() == b.wrong.empty() &&
           a.signature == b.signature && a.simCycles == b.simCycles &&
           a.moduloCycles == b.moduloCycles &&
           a.selectiveCycles == b.selectiveCycles &&
           a.verdicts == b.verdicts && a.proven == b.proven;
}

int
runUntraced(const Args &args)
{
    HostSpeed host;

    // Set up several times, and for at least half a second so that a
    // set-up of a few milliseconds still gets a steady median.
    using Interval = std::pair<int64_t, int64_t>;
    std::vector<Interval> setups;
    std::unique_ptr<Workload> w;
    int64_t setupTotalNs = 0;
    while (setups.size() < (args.shortMode ? 1u : 5u) ||
           (!args.shortMode && setupTotalNs < 500'000'000)) {
        host.maybeSample();
        int64_t t0 = nowNs();
        w = makeWorkload(args.workload, args.seconds, args.shortMode);
        w->setup(args.seed, nullptr);
        setups.push_back({t0, nowNs()});
        setupTotalNs += setups.back().second - t0;
    }

    // Every round serves every request once, starting from an empty
    // compile cache as a fresh process would. Each request served is
    // one latency sample.
    size_t n = w->requests();
    std::vector<Outcome> outcomes(n);
    std::vector<Interval> served;
    size_t failed = 0, wrong = 0, drift = 0;
    std::string firstProblem;
    int64_t start = nowNs();
    for (int round = 0; round < w->rounds(); ++round) {
        clearCompileCache();
        for (size_t i = 0; i < n; ++i) {
            host.maybeSample();
            w->beforeRequest(i);
            int64_t t0 = nowNs();
            Outcome out = w->run(i);
            served.push_back({t0, nowNs()});

            if (!out.failure.empty() || !out.wrong.empty()) {
                ++failed;
                if (firstProblem.empty())
                    firstProblem = out.wrong.empty() ? out.failure : out.wrong;
            }
            wrong += out.wrong.empty() ? 0 : 1;
            if (round == 0)
                outcomes[i] = std::move(out);
            else if (!sameOutputs(out, outcomes[i]))
                ++drift;    // a request must repeat its outputs exactly
        }
    }
    host.sample();
    double wall = static_cast<double>(nowNs() - start) / 1e9;
    size_t attempted = served.size();

    // Milliseconds of each interval, divided by the host's slowdown
    // around it or not.
    auto msOf = [&](const std::vector<Interval> &intervals, bool scale) {
        std::vector<double> ms;
        for (Interval t : intervals)
            ms.push_back(static_cast<double>(t.second - t.first) / 1e6 /
                         (scale ? host.slowdown(t.first, t.second) : 1.0));
        return ms;
    };
    std::vector<double> latencies = msOf(served, true);
    std::vector<double> unscaled = msOf(served, false);
    auto perSecond = [&](const std::vector<double> &ms) {
        double total = 0;
        for (double l : ms)
            total += l / 1e3;
        return static_cast<double>(ms.size()) / total;
    };
    double p90 = quantile(latencies, 0.9);
    size_t beyond = static_cast<size_t>(std::count_if(
        latencies.begin(), latencies.end(),
        [&](double l) { return l > p90; }));
    Quality q = qualityOf(outcomes);

    std::printf("workload %s: %zu requests x %d rounds in %.3f s of wall "
                "time\n",
                args.workload.c_str(), n, w->rounds(), wall);
    std::printf("  host slowdown %.4f (mean of %zu kernel samples); "
                "times below are divided by the slowdown around them\n",
                host.slowdown(), host.samples());
    std::printf("  unscaled: requests_per_s %.4f latency_p50_ms %.4f "
                "latency_p90_ms %.4f setup_s %.6f\n",
                perSecond(unscaled), quantile(unscaled, 0.5),
                quantile(unscaled, 0.9), median(msOf(setups, false)) / 1e3);
    std::printf("  latency samples: %zu; beyond p90: %zu\n",
                latencies.size(), beyond);
    std::printf("  error_ratio %.6f (%zu failed of %zu, %zu wrong outputs, "
                "%zu repeated requests drifted)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                failed, attempted, wrong, drift);
    if (!firstProblem.empty())
        std::printf("  first problem: %s\n", firstProblem.c_str());

    bool correct = wrong == 0 && drift == 0;
    printResult(correct, attempted, failed,
                {
                    {"setup_s", median(msOf(setups, true)) / 1e3, "s"},
                    {"requests_per_s", perSecond(latencies), "1/s"},
                    {"latency_p50_ms", quantile(latencies, 0.5), "ms"},
                    {"latency_p90_ms", p90, "ms"},
                    {"peak_rss_mb", peakRssMb(), "MB"},
                    {"sim_cycles", q.simCycles, "cycles"},
                    {"selective_speedup", q.speedup, "x"},
                    {"proven_ratio", q.provenRatio, "ratio"},
                });
    return correct ? 0 : 1;
}

int64_t
cacheStat(const char *key)
{
    return selvec::processStats().value(key);
}

int
runTraced(const Args &args)
{
    // Each side keeps its own host-speed samples: the two run seconds
    // apart, and the host may drift in between.
    std::unique_ptr<Workload> w =
        makeWorkload(args.workload, args.seconds, args.shortMode);
    HostSpeed untracedHost, tracedHost;
    untracedHost.sample();
    Tracer tracer;
    tracer.setRequest(-1);
    int setupRoot = tracer.open("setup", false);
    w->setup(args.seed, &tracer);
    tracer.close(setupRoot);
    size_t n = w->tracedRequests();

    // The untraced side: the same requests through the public entry
    // points, with the same cache state.
    clearCompileCache();
    std::vector<Outcome> untraced(n);
    std::vector<std::pair<int64_t, int64_t>> untracedAt(n);
    int64_t hits0 = cacheStat("cache.hit"), misses0 = cacheStat("cache.miss");
    for (size_t i = 0; i < n; ++i) {
        untracedHost.maybeSample();
        w->beforeRequest(i);
        int64_t t0 = nowNs();
        untraced[i] = w->run(i);
        untracedAt[i] = {t0, nowNs()};
    }
    int64_t hitsA = cacheStat("cache.hit") - hits0;
    int64_t missesA = cacheStat("cache.miss") - misses0;
    untracedHost.sample();
    tracedHost.sample();

    clearCompileCache();
    std::vector<Outcome> traced(n);
    std::vector<int> roots(n);
    hits0 = cacheStat("cache.hit");
    misses0 = cacheStat("cache.miss");
    for (size_t i = 0; i < n; ++i) {
        tracedHost.maybeSample();
        w->beforeRequest(i);
        tracer.setRequest(static_cast<int64_t>(i));
        roots[i] = tracer.open("request", false);
        traced[i] = w->replay(i, tracer);
        tracer.close(roots[i]);
    }
    int64_t hits = cacheStat("cache.hit") - hits0;
    int64_t misses = cacheStat("cache.miss") - misses0;
    tracedHost.sample();

    // Each request's times are divided by the host's slowdown around
    // it in its own pass, set-up spans by the slowdown around set-up.
    std::vector<double> slowUntraced(n), slowTraced(n);
    for (size_t i = 0; i < n; ++i) {
        slowUntraced[i] = untracedHost.slowdown(untracedAt[i].first,
                                                untracedAt[i].second);
        const Span &r = tracer.spans[roots[i]];
        slowTraced[i] = tracedHost.slowdown(r.startNs, r.endNs);
    }
    const Span &setupSpan = tracer.spans[setupRoot];
    double slowSetup =
        untracedHost.slowdown(setupSpan.startNs, setupSpan.endNs);

    size_t failed = 0, wrong = 0, mismatched = 0;
    std::string firstProblem;
    for (size_t i = 0; i < n; ++i) {
        for (const Outcome *o : {&untraced[i], &traced[i]}) {
            if (!o->wrong.empty() && firstProblem.empty())
                firstProblem = o->wrong;
            wrong += o->wrong.empty() ? 0 : 1;
        }
        if (!untraced[i].failure.empty() || !untraced[i].wrong.empty())
            ++failed;
        if (!sameOutputs(untraced[i], traced[i])) {
            ++mismatched;
            if (firstProblem.empty())
                firstProblem = "request " + std::to_string(i) +
                               ": replay outputs differ from the "
                               "untraced run";
        }
    }

    // Per request: time covered by layer spans, and by shadow spans.
    std::vector<int64_t> covered(tracer.spans.size()),
        shadow(tracer.spans.size()), direct(tracer.spans.size());
    for (const Span &s : tracer.spans) {
        if (s.parent < 0 || tracer.spans[s.parent].parent >= 0)
            continue;
        int64_t dur = s.endNs - s.startNs;
        covered[s.parent] += dur;
        (s.shadow ? shadow : direct)[s.parent] += dur;
    }
    // Milliseconds of `ns` spent replaying request i, scaled.
    auto tracedMs = [&](double ns, size_t i) {
        return ns / 1e6 / slowTraced[i];
    };
    double requestNs = 0, coveredNs = 0, tracedTopMs = 0, untracedMs = 0,
           shadowMs = 0, evaluateOverheadMs = 0;
    for (size_t i = 0; i < n; ++i) {
        const Span &r = tracer.spans[roots[i]];
        double dur = static_cast<double>(r.endNs - r.startNs);
        double ownMs = static_cast<double>(untracedAt[i].second -
                                           untracedAt[i].first) /
                       1e6 / slowUntraced[i];
        requestNs += dur;
        coveredNs += static_cast<double>(covered[roots[i]]);
        shadowMs += tracedMs(static_cast<double>(shadow[roots[i]]), i);
        tracedTopMs +=
            tracedMs(dur - static_cast<double>(shadow[roots[i]]), i);
        untracedMs += ownMs;
        evaluateOverheadMs +=
            ownMs - tracedMs(static_cast<double>(direct[roots[i]]), i);
    }

    std::vector<int64_t> selfNs = tracer.selfNs();
    std::map<std::string, double> self;
    for (size_t k = 0; k < tracer.spans.size(); ++k) {
        const Span &s = tracer.spans[k];
        double ns = static_cast<double>(selfNs[k]);
        self[s.name] += s.request < 0
                            ? ns / 1e6 / slowSetup
                            : tracedMs(ns, static_cast<size_t>(s.request));
    }
    auto ms = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    auto c = [&](const char *key) { return tracer.countOf(key); };

    std::printf("workload %s traced: %zu requests replayed; cache hits "
                "%lld/%lld untraced, %lld/%lld replayed\n",
                args.workload.c_str(), n, static_cast<long long>(hitsA),
                static_cast<long long>(hitsA + missesA),
                static_cast<long long>(hits),
                static_cast<long long>(hits + misses));
    std::printf("  %zu failed, %zu wrong outputs, %zu replays differ; host "
                "slowdown %.4f untraced, %.4f traced (times below are "
                "divided by it)\n",
                failed, wrong, mismatched, untracedHost.slowdown(),
                tracedHost.slowdown());
    if (!firstProblem.empty())
        std::printf("  first problem: %s\n", firstProblem.c_str());

    if (!args.traceOut.empty() && !tracer.writeJsonLines(args.traceOut))
        std::fprintf(stderr, "cannot write spans to %s\n",
                     args.traceOut.c_str());

    bool correct = wrong == 0 && mismatched == 0;
    double klMs = ms("core.partition_kl");
    double runMs = ms("sim.run");
    printResult(
        correct, n, failed,
        {
            {"workloads.setup_ms", ms("workloads.setup"), "ms"},
            {"lir.parse_ms", ms("lir.parse"), "ms"},
            {"lir.parse_bytes", c("lir.parse_bytes"), "bytes"},
            {"ir.verify_ms", ms("ir.verify"), "ms"},
            {"analysis.depgraph_ms", ms("analysis.depgraph"), "ms"},
            {"analysis.depgraph_edges", c("analysis.depgraph_edges"), "count"},
            {"analysis.vectorizable_ms", ms("analysis.vectorizable"), "ms"},
            {"core.partition_kl_ms", klMs, "ms"},
            {"core.partition_kl_moves", c("core.partition_kl_moves"), "count"},
            {"core.partition_kl_ns_per_move",
             ratio(klMs * 1e6, c("core.partition_kl_moves")), "ns/move"},
            {"core.partition_exact_ms", ms("core.partition_exact"), "ms"},
            {"core.partition_exact_nodes", c("core.partition_exact_nodes"),
             "count"},
            {"core.partition_exact_pruned_ratio",
             ratio(c("core.partition_exact_pruned"),
                   c("core.partition_exact_nodes")),
             "ratio"},
            {"core.partition_exact_unproven",
             c("core.partition_exact_unproven"), "count"},
            {"core.transform_ms", ms("core.transform"), "ms"},
            {"vectorize.full_ms", ms("vectorize.full"), "ms"},
            {"vectorize.traditional_ms", ms("vectorize.traditional"), "ms"},
            {"pipeline.lowering_ms", ms("pipeline.lowering"), "ms"},
            {"pipeline.modsched_ms", ms("pipeline.modsched"), "ms"},
            {"pipeline.modsched_placements",
             c("pipeline.modsched_placements"), "count"},
            {"pipeline.modsched_ii_attempts",
             c("pipeline.modsched_ii_attempts"), "count"},
            {"pipeline.modsched_backtracks", c("pipeline.modsched_backtracks"),
             "count"},
            {"pipeline.checker_ms", ms("pipeline.checker"), "ms"},
            {"sim.plan_ms", ms("sim.plan"), "ms"},
            {"sim.mem_setup_ms", ms("sim.mem_setup"), "ms"},
            {"sim.mem_cells", c("sim.mem_cells"), "count"},
            {"sim.verify_diff_ms", ms("sim.verify_diff"), "ms"},
            {"sim.run_ms", runMs, "ms"},
            {"sim.cycles_per_s", ratio(c("sim.run_cycles"), runMs / 1e3),
             "cycles/s"},
            {"sim.reference_ms", ms("sim.reference"), "ms"},
            {"driver.compile_ms", ms("driver.compile"), "ms"},
            {"driver.compile_overhead_ms",
             ms("driver.compile") - shadowMs, "ms"},
            {"driver.cache_hit_ratio",
             ratio(static_cast<double>(hits),
                   static_cast<double>(hits + misses)),
             "ratio"},
            {"driver.compile_failures", c("driver.compile_failures"), "count"},
            {"driver.evaluate_overhead_ms",
             w->evaluatesSuites() ? evaluateOverheadMs : 0.0, "ms"},
            {"trace.coverage", ratio(coveredNs, requestNs), "ratio"},
            {"trace.overhead",
             ratio(tracedTopMs, untracedMs) - 1, "ratio"},
        });
    return correct ? 0 : 1;
}

/**
 * glibc raises its mmap threshold and trim threshold as the program
 * frees large blocks, so whether a memory image comes from fresh pages
 * depends on the history of frees before it, which depends on timing.
 * On the reference host two paper_tables runs of one seed took 0.24M
 * and 2.4M page faults, and their unscaled throughput differed by a
 * fifth. Fixing both thresholds at the ceiling glibc's adaptation
 * works up to gives every run the same allocator.
 */
void
fixAllocator()
{
#if defined(M_MMAP_THRESHOLD) && defined(M_TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    fixAllocator();
    Args args = parseArgs(argc, argv);
    if (!makeWorkload(args.workload, 1, true))
        usage(("unknown workload '" + args.workload + "'").c_str());
    std::string problems = hygieneProblems();
    if (!problems.empty()) {
        std::fprintf(stderr, "selvec_perfbench: refusing to measure: %s\n",
                     problems.c_str());
        return 2;
    }
    printFingerprint(args);
    return args.trace ? runTraced(args) : runUntraced(args);
}
