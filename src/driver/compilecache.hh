/**
 * @file
 * The schedule memo: techniques that schedule the same loop share one
 * schedule.
 *
 * Every in-place technique (ModuloOnly, Full, Selective,
 * IterationSplit) runs the leftover iterations of its transformed loop
 * in a cleanup loop, and that cleanup is the untouched source loop. So
 * the one piece of work a multi-technique run repeats is the
 * lower+schedule+validate run of that source loop; Selective's main
 * loop also repeats ModuloOnly's when KL keeps every op scalar. The
 * memo sits inside scheduleInto and keys each run on the *structure*
 * of the request: the written LIR of the loop (the canonical form
 * `writeLoop` emits), the array table, every semantic machine field
 * (never the name) and the scheduling options. The key is the full
 * canonical string, not a lossy hash, so two distinct requests can
 * never alias one schedule.
 *
 * Bound. The memo holds at most kCompileCacheCapacity entries; a new
 * key arriving at a full memo clears it first. The shared cleanup
 * schedule is needed by the techniques of one loop, which run close
 * together, so a small bound keeps nearly every hit at a fraction of
 * the memory an unbounded store would take.
 *
 * Determinism. Each value stores the stats delta its run recorded; a
 * hit replays that delta into the caller's registry, so the merged
 * stats of a run do not depend on which requests hit. Concurrent
 * requests for one key deduplicate: the first claims the slot and
 * computes, the rest block until the value is ready and count a
 * `cache.hit`. Below the bound hit/miss totals are invariant under
 * --jobs; past it, which entries a clear drops depends on arrival
 * order, so only the totals (never a result) can vary.
 *
 * Fault injection. Replaying a stored schedule would skip the fault
 * sites inside it, so the driver bypasses the memo entirely while a
 * FaultPlan or a deadline is armed.
 */

#ifndef SELVEC_DRIVER_COMPILECACHE_HH
#define SELVEC_DRIVER_COMPILECACHE_HH

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/driver.hh"
#include "support/stats.hh"

namespace selvec
{

/** Entries the schedule memo holds before a new key clears it. */
constexpr size_t kCompileCacheCapacity = 256;

/**
 * A keyed computation store bounded by clearing. Values are immutable
 * once published and shared by pointer; compute callbacks run outside
 * the map lock, and concurrent requests for one key run the callback
 * exactly once (waiters block on the slot, which outlives a clear).
 */
template <typename V>
class StructuralCache
{
  public:
    std::shared_ptr<const V>
    lookupOrCompute(const std::string &key,
                    const std::function<V()> &compute)
    {
        std::shared_ptr<Slot> slot;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lock(mutex);
            auto it = slots.find(key);
            if (it != slots.end()) {
                slot = it->second;
            } else {
                if (slots.size() >= kCompileCacheCapacity)
                    slots.clear();
                slot = std::make_shared<Slot>();
                slots.emplace(key, slot);
                owner = true;
            }
        }

        // Cache traffic counts straight into the process registry,
        // bypassing capture sinks, so it never enters a stored delta.
        if (owner) {
            processStats().add("cache.miss");
            std::shared_ptr<const V> value;
            try {
                value = std::make_shared<const V>(compute());
            } catch (...) {
                std::lock_guard<std::mutex> lock(slot->mutex);
                slot->error = std::current_exception();
                slot->ready = true;
                slot->cv.notify_all();
                throw;
            }
            std::lock_guard<std::mutex> lock(slot->mutex);
            slot->value = value;
            slot->ready = true;
            slot->cv.notify_all();
            return value;
        }

        processStats().add("cache.hit");
        std::unique_lock<std::mutex> lock(slot->mutex);
        slot->cv.wait(lock, [&] { return slot->ready; });
        if (slot->error)
            std::rethrow_exception(slot->error);
        return slot->value;
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex);
        slots.clear();
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return slots.size();
    }

  private:
    struct Slot
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool ready = false;
        std::shared_ptr<const V> value;
        std::exception_ptr error;
    };

    mutable std::mutex mutex;
    std::map<std::string, std::shared_ptr<Slot>> slots;
};

/** Memoized outcome of one scheduleInto run. */
struct ScheduleCacheValue
{
    Status status;
    Loop lowered;
    ModuloSchedule schedule;
    int64_t resMii = 0;
    int64_t recMii = 0;
    std::vector<StatEntry> statsDelta;
};

/** Whether scheduleInto may consult the memo on this thread (enabled,
 *  no fault plan armed, no deadline/cancellation context armed). */
bool compileCacheActive();

/** Globally enable/disable the memo (--no-cache; default on). */
void compileCacheSetEnabled(bool enabled);
bool compileCacheEnabled();

/** Drop every memo entry (tests and benchmarks: cold runs). */
void compileCacheClear();

/** Canonical key of one lower+schedule+validate request. */
std::string scheduleCacheKey(const Loop &body, const ArrayTable &arrays,
                             const Machine &machine,
                             const ScheduleOptions &options);

/** The process-wide schedule memo. */
StructuralCache<ScheduleCacheValue> &scheduleCache();

} // namespace selvec

#endif // SELVEC_DRIVER_COMPILECACHE_HH
