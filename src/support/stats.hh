/**
 * @file
 * The compile-stats registry: a process-wide, thread-safe collection
 * of named counters, gauges and timers that every pipeline stage
 * reports into, and that the JSON report surface serializes.
 *
 * Keys are dotted paths ("modsched.attempts", "partition.moves");
 * statsToJson() folds them into a nested object, so the dots define
 * the hierarchy. Keys are schema-stable API — tools and CI parse
 * them; see DESIGN.md ("Observability") for the registered names.
 *
 * Four kinds:
 *   counter    — monotonically accumulated int64 (events, items);
 *   gauge      — last written value (the most recent II, cut cost);
 *   max gauge  — high-water mark (largest SCC, worst ResMII);
 *   timer      — accumulated nanoseconds plus a sample count.
 *
 * Stage instrumentation calls these once per stage invocation, never
 * per inner-loop step, so the registry stays off the hot paths; inner
 * loops accumulate locally and report totals.
 *
 * Parallel runs and determinism. globalStats() resolves through a
 * thread-local sink: a worker task wraps its work in a
 * ScopedStatsSink over a private registry, and the orchestrator
 * merges the per-task deltas back into the parent registry in task
 * order (mergeFrom). Counters, max gauges and timers commute, and
 * last-write gauges resolve to the same writer as a serial run, so
 * the merged registry is byte-identical no matter how many threads
 * executed the tasks. Only timer nanoseconds stay wall-clock
 * dependent; toJson(false) zeroes them so emitted documents are
 * byte-stable across runs (the sample counts remain).
 */

#ifndef SELVEC_SUPPORT_STATS_HH
#define SELVEC_SUPPORT_STATS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hh"

namespace selvec
{

enum class StatKind : uint8_t { Counter, Gauge, MaxGauge, Timer };

/** One stat as captured by a snapshot. */
struct StatEntry
{
    std::string key;
    StatKind kind = StatKind::Counter;
    int64_t value = 0;      ///< count, gauge value, or total ns
    int64_t samples = 0;    ///< timer samples (0 otherwise)
};

class StatsRegistry
{
  public:
    /** Add to a counter (creating it at zero). */
    void add(const std::string &key, int64_t delta = 1);

    /** Set a gauge to its most recent value. */
    void setGauge(const std::string &key, int64_t value);

    /** Raise a high-water-mark gauge. */
    void maxGauge(const std::string &key, int64_t value);

    /** Accumulate one timer sample. */
    void addTimerNs(const std::string &key, int64_t ns);

    /** All stats, sorted by key. */
    std::vector<StatEntry> snapshot() const;

    /** Value of one stat (0 when absent). */
    int64_t value(const std::string &key) const;

    void reset();

    /**
     * Fold another registry's contents into this one, by kind:
     * counters and timers add, max gauges take the max, and plain
     * gauges overwrite (so merging task deltas in task order yields
     * the same final value as serial execution).
     */
    void mergeFrom(const StatsRegistry &other);

    /** mergeFrom for an already-captured snapshot — how the schedule
     *  memo replays a stored delta on a hit. */
    void applyEntries(const std::vector<StatEntry> &entries);

    /**
     * The registry as a nested JSON object: dotted keys become object
     * paths; timers serialize as {"total_ns", "samples"} leaves,
     * everything else as integer leaves. With `includeTimerNs` false,
     * timer total_ns leaves are emitted as 0 (sample counts are kept)
     * so the document is byte-stable across runs — the report surface
     * uses this unless SELVEC_TIMINGS opts into wall-clock values.
     * Keys starting with `excludePrefix` (when non-empty) are left out
     * entirely — the report surface drops `cache.*` so a warm schedule
     * memo emits the same document bytes as a cold one.
     */
    JsonValue toJson(bool includeTimerNs = true,
                     const std::string &excludePrefix = "") const;

  private:
    struct Stat
    {
        StatKind kind = StatKind::Counter;
        int64_t value = 0;
        int64_t samples = 0;
    };

    mutable std::mutex mutex;
    std::map<std::string, Stat> stats;
};

/**
 * The registry stage instrumentation reports into: the thread's
 * active sink when a ScopedStatsSink is installed, the process-wide
 * registry otherwise.
 */
StatsRegistry &globalStats();

/** The process-wide registry itself, bypassing any thread-local
 *  sink (report emission, tests). */
StatsRegistry &processStats();

/**
 * Redirect this thread's globalStats() to a private registry for the
 * scope's lifetime. Nests; the orchestrator that installed the sink
 * is responsible for merging the captured delta back (in a
 * deterministic order when tasks ran concurrently).
 */
class ScopedStatsSink
{
  public:
    explicit ScopedStatsSink(StatsRegistry &sink);
    ~ScopedStatsSink();

    ScopedStatsSink(const ScopedStatsSink &) = delete;
    ScopedStatsSink &operator=(const ScopedStatsSink &) = delete;

  private:
    StatsRegistry *previous;
};

/** RAII wall-clock timer feeding globalStats().addTimerNs(key). */
class ScopedStatTimer
{
  public:
    explicit ScopedStatTimer(const char *key);
    ~ScopedStatTimer();

    ScopedStatTimer(const ScopedStatTimer &) = delete;
    ScopedStatTimer &operator=(const ScopedStatTimer &) = delete;

  private:
    const char *key;
    int64_t startNs;
};

} // namespace selvec

#endif // SELVEC_SUPPORT_STATS_HH
