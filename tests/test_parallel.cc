/**
 * @file
 * Tests for the parallel-compilation layer: the thread pool,
 * thread-local stat sinks, the schedule memo, and the headline
 * determinism contract — evaluateSuite and the bench documents built
 * from it are byte-identical for every --jobs value and for a cold,
 * warm or disabled memo (stats.cache aside, which records the memo's
 * own traffic).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>

#include "driver/compilecache.hh"
#include "driver/driver.hh"
#include "driver/evaluate.hh"
#include "driver/reportjson.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "support/stats.hh"
#include "support/threadpool.hh"
#include "workloads/workloads.hh"

namespace selvec
{
namespace
{

// ---------------------------------------------------------------------
// Thread pool.

TEST(ThreadPool, ResolveJobs)
{
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_EQ(resolveJobs(7), 7);
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_GE(resolveJobs(-3), 1);
}

TEST(ThreadPool, VisitsEveryIndexExactlyOnce)
{
    for (int jobs : {1, 2, 8}) {
        ThreadPool pool(jobs);
        const size_t n = 100;
        std::vector<std::atomic<int>> visits(n);
        pool.parallelFor(n, [&](size_t i) { visits[i].fetch_add(1); });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(visits[i].load(), 1) << "jobs=" << jobs;
    }
}

TEST(ThreadPool, SingleJobRunsInlineOnCaller)
{
    ThreadPool pool(1);
    std::thread::id caller = std::this_thread::get_id();
    std::set<std::thread::id> seen;
    pool.parallelFor(4, [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, EmptyBatchIsANoOp)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(0, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, FirstExceptionPropagates)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(16,
                         [&](size_t i) {
                             if (i % 2 == 0)
                                 throw std::runtime_error("task died");
                         }),
        std::runtime_error);
    // The pool survives a failed batch.
    std::atomic<int> count{0};
    pool.parallelFor(8, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, CollectsEveryFailureNotJustTheFirst)
{
    // parallelForAll keeps one slot per index: concurrent failures
    // are all observable, and they land at their own indices — the
    // collect-all semantics suite quarantine is built on.
    for (int jobs : {1, 4}) {
        ThreadPool pool(jobs);
        std::vector<std::exception_ptr> errors =
            pool.parallelForAll(10, [&](size_t i) {
                if (i % 3 == 0)
                    throw std::runtime_error(
                        "task " + std::to_string(i) + " died");
            });
        ASSERT_EQ(errors.size(), 10u) << "jobs=" << jobs;
        for (size_t i = 0; i < errors.size(); ++i) {
            if (i % 3 != 0) {
                EXPECT_EQ(errors[i], nullptr) << i;
                continue;
            }
            ASSERT_NE(errors[i], nullptr) << i;
            try {
                std::rethrow_exception(errors[i]);
            } catch (const std::runtime_error &e) {
                EXPECT_EQ(std::string(e.what()),
                          "task " + std::to_string(i) + " died");
            }
        }
    }
}

TEST(ThreadPool, ParallelForRethrowsLowestFailedIndex)
{
    // parallelFor's exception choice is deterministic: index order,
    // not completion order.
    ThreadPool pool(8);
    for (int round = 0; round < 3; ++round) {
        try {
            pool.parallelFor(16, [&](size_t i) {
                if (i == 5 || i == 11)
                    throw std::runtime_error(std::to_string(i));
            });
            FAIL() << "batch should have thrown";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()), "5");
        }
    }
}

TEST(ThreadPool, BackToBackBatchesNeverHang)
{
    // Thousands of batches on one pool object, each with failing
    // indices. A pool that hands batches to long-lived workers can let
    // a late worker claim an index of the next batch against the
    // previous batch's total, and the caller then waits forever (ctest
    // gives this test a short TIMEOUT). Every batch must run each of
    // its own indices once and report exactly its own failures.
    ThreadPool pool(8);
    for (size_t batch = 0; batch < 2000; ++batch) {
        const size_t n = 1 + batch % 17;
        const size_t bad = batch % n;
        std::vector<std::atomic<int>> visits(n);
        auto task = [&](size_t i) {
            visits[i].fetch_add(1);
            if (i == bad || i + 1 == n)
                throw std::runtime_error(std::to_string(i));
        };
        if (batch % 2 == 0) {
            std::vector<std::exception_ptr> errors =
                pool.parallelForAll(n, task);
            ASSERT_EQ(errors.size(), n);
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(errors[i] != nullptr, i == bad || i + 1 == n)
                    << "batch " << batch << " index " << i;
        } else {
            try {
                pool.parallelFor(n, task);
                FAIL() << "batch " << batch << " should have thrown";
            } catch (const std::runtime_error &e) {
                ASSERT_EQ(std::string(e.what()), std::to_string(bad))
                    << "batch " << batch;
            }
        }
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(visits[i].load(), 1)
                << "batch " << batch << " index " << i;
    }
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool outer(4);
    std::atomic<int> total{0};
    outer.parallelFor(4, [&](size_t) {
        ThreadPool inner(4);
        std::thread::id me = std::this_thread::get_id();
        inner.parallelFor(4, [&](size_t) {
            // Re-entrant batches run inline on the worker itself;
            // anything else risks deadlock through sink/trace state.
            EXPECT_EQ(std::this_thread::get_id(), me);
            total.fetch_add(1);
        });
    });
    EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, RecordsBatchAndTaskStats)
{
    StatsRegistry sink;
    {
        ScopedStatsSink scope(sink);
        ThreadPool pool(1);
        pool.parallelFor(5, [](size_t) {});
    }
    EXPECT_EQ(sink.value("pool.batches"), 1);
    EXPECT_EQ(sink.value("pool.tasks"), 5);
}

// ---------------------------------------------------------------------
// Thread-local stat sinks.

TEST(StatsSink, RedirectsAndMergesInOrder)
{
    StatsRegistry outer;
    StatsRegistry a, b;
    {
        ScopedStatsSink sa(a);
        globalStats().add("x.counter", 2);
        globalStats().setGauge("x.gauge", 10);
        {
            // Nesting restores the previous sink, not the process
            // registry.
            ScopedStatsSink sb(b);
            globalStats().add("x.counter", 5);
            globalStats().setGauge("x.gauge", 20);
        }
        globalStats().add("x.counter", 1);
    }
    EXPECT_EQ(a.value("x.counter"), 3);
    EXPECT_EQ(b.value("x.counter"), 5);

    outer.mergeFrom(a);
    outer.mergeFrom(b);
    EXPECT_EQ(outer.value("x.counter"), 8);
    EXPECT_EQ(outer.value("x.gauge"), 20);   // last merge wins
}

TEST(StatsSink, ToJsonCanZeroTimerNs)
{
    StatsRegistry reg;
    reg.addTimerNs("time.compile", 1234);
    JsonValue with = reg.toJson(true);
    JsonValue without = reg.toJson(false);
    EXPECT_EQ(with.findPath("time.compile.total_ns")->intValue(), 1234);
    EXPECT_EQ(without.findPath("time.compile.total_ns")->intValue(), 0);
    // Sample counts are deterministic and stay.
    EXPECT_EQ(without.findPath("time.compile.samples")->intValue(), 1);
}

// ---------------------------------------------------------------------
// Schedule memo.

const char *kCacheSaxpy = R"(
array X f64 4096
array Y f64 4096
loop saxpy {
    livein a f64
    body {
        x = load X[i]
        y = load Y[i]
        ax = fmul a x
        s = fadd ax y
        store Y[i] = s
    }
}
)";

class CompileCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        wasEnabled = compileCacheEnabled();
        compileCacheSetEnabled(true);
        compileCacheClear();
    }

    void
    TearDown() override
    {
        compileCacheClear();
        compileCacheSetEnabled(wasEnabled);
    }

    bool wasEnabled = true;
};

TEST_F(CompileCacheTest, StructuralCacheComputesOncePerKey)
{
    StructuralCache<int> cache;
    std::atomic<int> computed{0};
    auto compute = [&] {
        computed.fetch_add(1);
        return 42;
    };
    int64_t hits0 = processStats().value("cache.hit");
    EXPECT_EQ(*cache.lookupOrCompute("k", compute), 42);
    EXPECT_EQ(*cache.lookupOrCompute("k", compute), 42);
    EXPECT_EQ(computed.load(), 1);
    EXPECT_EQ(processStats().value("cache.hit"), hits0 + 1);

    // Concurrent requests for one key deduplicate.
    ThreadPool pool(8);
    pool.parallelFor(16, [&](size_t) {
        EXPECT_EQ(*cache.lookupOrCompute("k2", compute), 42);
    });
    EXPECT_EQ(computed.load(), 2);
    EXPECT_EQ(cache.size(), 2u);
}

TEST_F(CompileCacheTest, KeySeparatesStructureNotNames)
{
    Module m = parseLirOrDie(kCacheSaxpy);
    Machine a = paperMachine();
    Machine b = paperMachine();
    b.name = "renamed-but-identical";
    ScheduleOptions options;
    const Loop &loop = m.loops[0];
    // The machine name is presentation, not structure.
    EXPECT_EQ(scheduleCacheKey(loop, m.arrays, a, options),
              scheduleCacheKey(loop, m.arrays, b, options));

    Machine c = paperMachine();
    c.vectorLength *= 2;
    EXPECT_NE(scheduleCacheKey(loop, m.arrays, a, options),
              scheduleCacheKey(loop, m.arrays, c, options));

    // Array geometry and scheduler knobs reach the schedule, so they
    // separate keys.
    ArrayTable bigger = m.arrays;
    bigger[0].size *= 2;
    EXPECT_NE(scheduleCacheKey(loop, m.arrays, a, options),
              scheduleCacheKey(loop, bigger, a, options));
    ScheduleOptions wider = options;
    wider.budgetFactor += 1;
    EXPECT_NE(scheduleCacheKey(loop, m.arrays, a, options),
              scheduleCacheKey(loop, m.arrays, a, wider));
}

TEST_F(CompileCacheTest, HitReturnsBitIdenticalProgram)
{
    Module m = parseLirOrDie(kCacheSaxpy);
    Machine machine = paperMachine();
    for (Technique t :
         {Technique::ModuloOnly, Technique::Traditional, Technique::Full,
          Technique::Selective}) {
        compileCacheClear();
        int64_t miss0 = processStats().value("cache.miss");
        int64_t hit0 = processStats().value("cache.hit");

        ArrayTable cold_arrays = m.arrays;
        Expected<CompiledProgram> cold = tryCompileLoop(
            m.loops[0], cold_arrays, machine, t);
        ASSERT_TRUE(cold.ok());
        EXPECT_GT(processStats().value("cache.miss"), miss0);

        ArrayTable warm_arrays = m.arrays;
        Expected<CompiledProgram> warm = tryCompileLoop(
            m.loops[0], warm_arrays, machine, t);
        ASSERT_TRUE(warm.ok());
        EXPECT_GT(processStats().value("cache.hit"), hit0);

        // The replayed program and array table are bit-identical to
        // the first compile's.
        EXPECT_EQ(jsonOfCompiledProgram(cold.value()).dump(),
                  jsonOfCompiledProgram(warm.value()).dump())
            << techniqueName(t);
        ASSERT_EQ(cold_arrays.size(), warm_arrays.size());
        for (ArrayId a = 0; a < cold_arrays.size(); ++a) {
            EXPECT_EQ(cold_arrays[a].name, warm_arrays[a].name);
            EXPECT_EQ(cold_arrays[a].size, warm_arrays[a].size);
        }
    }
}

TEST_F(CompileCacheTest, HitReplaysStatsDelta)
{
    Module m = parseLirOrDie(kCacheSaxpy);
    Machine machine = paperMachine();

    StatsRegistry cold_stats;
    {
        ScopedStatsSink sink(cold_stats);
        ArrayTable arrays = m.arrays;
        ASSERT_TRUE(
            tryCompileLoop(m.loops[0], arrays, machine,
                           Technique::Selective).ok());
    }
    StatsRegistry warm_stats;
    {
        ScopedStatsSink sink(warm_stats);
        ArrayTable arrays = m.arrays;
        ASSERT_TRUE(
            tryCompileLoop(m.loops[0], arrays, machine,
                           Technique::Selective).ok());
    }
    // The warm run's compile stats are the replayed delta: identical
    // to the cold run's, so merged reports are independent of which
    // requests hit. (cache.* itself goes to the process registry.)
    EXPECT_EQ(cold_stats.toJson(false).dump(),
              warm_stats.toJson(false).dump());
}

/** `tryCompileLoop` of `m`'s loop with the memo on or off, rendered
 *  as the program's JSON (the bit-identity witness). */
std::string
compiledJson(const Module &m, const Machine &machine, Technique t,
             bool memo)
{
    bool was = compileCacheEnabled();
    compileCacheSetEnabled(memo);
    ArrayTable arrays = m.arrays;
    Expected<CompiledProgram> program =
        tryCompileLoop(m.loops[0], arrays, machine, t);
    compileCacheSetEnabled(was);
    EXPECT_TRUE(program.ok()) << program.status().str();
    return program.ok() ? jsonOfCompiledProgram(program.value()).dump()
                        : std::string();
}

TEST_F(CompileCacheTest, TechniquesShareTheCleanupSchedule)
{
    // ModuloOnly and Selective both schedule the untouched source loop
    // as their cleanup: the second compile must hit the memo for it.
    Module m = parseLirOrDie(kCacheSaxpy);
    Machine machine = paperMachine();
    std::string modulo =
        compiledJson(m, machine, Technique::ModuloOnly, true);
    int64_t hits0 = processStats().value("cache.hit");
    std::string selective =
        compiledJson(m, machine, Technique::Selective, true);
    EXPECT_GE(processStats().value("cache.hit"), hits0 + 1);

    EXPECT_EQ(modulo,
              compiledJson(m, machine, Technique::ModuloOnly, false));
    EXPECT_EQ(selective,
              compiledJson(m, machine, Technique::Selective, false));
}

TEST_F(CompileCacheTest, ScheduleMemoStaysBoundedAndExact)
{
    // Distinct array sizes give distinct schedule keys: enough
    // ModuloOnly compiles (main + cleanup each) to overflow the memo.
    auto saxpyOfSize = [](int size) {
        char text[512];
        std::snprintf(text, sizeof(text),
                      "array X f64 %d\narray Y f64 %d\n%s", size,
                      size, std::strstr(kCacheSaxpy, "loop saxpy"));
        return parseLirOrDie(text);
    };
    Machine machine = paperMachine();
    const int loops = static_cast<int>(kCompileCacheCapacity) / 2 + 20;
    size_t largest = 0;
    int clears = 0;
    std::vector<std::string> first;
    for (int k = 0; k < loops; ++k) {
        size_t before = scheduleCache().size();
        std::string json = compiledJson(
            saxpyOfSize(1024 + k), machine, Technique::ModuloOnly, true);
        if (k < 2)
            first.push_back(json);
        size_t after = scheduleCache().size();
        largest = std::max(largest, after);
        if (after < before) {
            // A full memo is cleared, then keeps only this compile's
            // two schedules.
            ++clears;
            EXPECT_LE(after, 2u) << k;
        }
    }
    EXPECT_EQ(clears, 1);
    EXPECT_LE(largest, kCompileCacheCapacity);

    // An entry dropped by the clear is recomputed and one still held
    // is a hit; both are bit-identical to a memo-off compile.
    for (int k : {0, 1, loops - 1}) {
        Module m = saxpyOfSize(1024 + k);
        std::string uncached =
            compiledJson(m, machine, Technique::ModuloOnly, false);
        int64_t misses0 = processStats().value("cache.miss");
        EXPECT_EQ(compiledJson(m, machine, Technique::ModuloOnly, true),
                  uncached)
            << k;
        EXPECT_EQ(processStats().value("cache.miss") > misses0,
                  k < 2)
            << k;
        if (k < 2) {
            EXPECT_EQ(first[k], uncached) << k;
        }
    }
    EXPECT_LE(scheduleCache().size(), kCompileCacheCapacity);
}

// ---------------------------------------------------------------------
// End-to-end determinism.

/** The full selvec-bench-v1 document a bench binary would emit for
 *  one suite, with stats taken from `sink` (timers zeroed: wall time
 *  is the one legitimately nondeterministic quantity). */
std::string
documentOf(const SuiteReport &base,
           const std::vector<SuiteReport> &techniques,
           const StatsRegistry &sink)
{
    JsonValue doc = benchDocument("test_parallel", "quick");
    JsonValue suites = JsonValue::array();
    suites.append(jsonOfSuiteComparison(base, techniques));
    doc.set("suites", std::move(suites));
    doc.set("stats", sink.toJson(false));
    return doc.dump(2);
}

std::string
runSuiteDocument(const Suite &suite, const Machine &machine, int jobs)
{
    StatsRegistry sink;
    ScopedStatsSink scope(sink);
    EvaluateOptions options;
    options.jobs = jobs;
    SuiteReport base =
        evaluateSuite(suite, machine, Technique::ModuloOnly, options);
    SuiteReport full =
        evaluateSuite(suite, machine, Technique::Full, options);
    SuiteReport sel =
        evaluateSuite(suite, machine, Technique::Selective, options);
    return documentOf(base, {full, sel}, sink);
}

TEST_F(CompileCacheTest, SuiteDocumentsAreJobCountInvariant)
{
    Suite suite = makeSuite("171.swim");
    for (WorkloadLoop &wl : suite.loops) {
        wl.tripCount = std::min<int64_t>(wl.tripCount, 96);
        wl.invocations = std::max<int64_t>(1, wl.invocations / 4);
    }
    Machine machine = paperMachine();

    compileCacheClear();
    std::string serial = runSuiteDocument(suite, machine, 1);
    compileCacheClear();
    std::string parallel = runSuiteDocument(suite, machine, 8);
    EXPECT_EQ(serial, parallel);

    // Warm cache (no clear): the merged documents are still
    // byte-identical — hits replay the cold run's stats delta.
    std::string warm = runSuiteDocument(suite, machine, 8);
    EXPECT_EQ(serial, warm);

    // And with the cache off entirely.
    compileCacheSetEnabled(false);
    std::string uncached = runSuiteDocument(suite, machine, 8);
    compileCacheSetEnabled(true);
    EXPECT_EQ(serial, uncached);
}

} // anonymous namespace
} // namespace selvec
