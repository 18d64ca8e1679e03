/**
 * @file
 * Failure containment: monotonic deadlines and cooperative
 * cancellation (DESIGN.md §10).
 *
 * A Deadline is a point on the monotonic clock; a CancelToken is a
 * shared flag another thread can raise. Together they form the
 * ambient containment context of a thread: ScopedDeadline installs
 * one (combining with any outer scope — the effective deadline is
 * the sooner of the two, and an inherited cancel token stays live),
 * the thread pool republishes the caller's context in its workers,
 * and the long loops of the pipeline — KL partitioning passes, the
 * modulo scheduler's placement loop, the simulator's event loop —
 * poll checkDeadline() and surface ErrorCode::DeadlineExceeded /
 * Cancelled as ordinary structured statuses.
 *
 * The unarmed fast path is one thread-local boolean: code that polls
 * in a hot loop pays nothing until a containment context exists.
 * Polling is cooperative — a trip is detected at the next check, so
 * bounds are approximate by one loop body, never violated by more.
 */

#ifndef SELVEC_SUPPORT_DEADLINE_HH
#define SELVEC_SUPPORT_DEADLINE_HH

#include <atomic>
#include <chrono>
#include <memory>

#include "support/status.hh"

namespace selvec
{

/** A point on the monotonic clock; default-constructed: unlimited. */
class Deadline
{
  public:
    Deadline() = default;

    /** No bound (same as a default-constructed Deadline). */
    static Deadline
    never()
    {
        return Deadline();
    }

    /** `ms` milliseconds from now (ms <= 0: already expired). */
    static Deadline
    afterMs(int64_t ms)
    {
        Deadline d;
        d.limited = true;
        d.when = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(ms);
        return d;
    }

    bool unlimited() const { return !limited; }

    bool
    expired() const
    {
        return limited && std::chrono::steady_clock::now() >= when;
    }

    /** Milliseconds until expiry (clamped to >= 0; meaningless for
     *  unlimited deadlines). */
    int64_t
    remainingMs() const
    {
        if (!limited)
            return INT64_MAX;
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            when - std::chrono::steady_clock::now());
        return left.count() < 0 ? 0 : left.count();
    }

    /** The sooner of two deadlines. */
    static Deadline
    sooner(const Deadline &a, const Deadline &b)
    {
        if (a.unlimited())
            return b;
        if (b.unlimited())
            return a;
        Deadline d;
        d.limited = true;
        d.when = a.when < b.when ? a.when : b.when;
        return d;
    }

  private:
    bool limited = false;
    std::chrono::steady_clock::time_point when{};
};

/**
 * A shared cancellation flag. Copies alias the same flag; a
 * default-constructed token is null (never cancelled, requests are
 * no-ops) so the unarmed case costs nothing.
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /** A fresh, uncancelled token. */
    static CancelToken
    create()
    {
        CancelToken t;
        t.flag = std::make_shared<std::atomic<bool>>(false);
        return t;
    }

    bool valid() const { return flag != nullptr; }

    bool
    cancelled() const
    {
        return flag != nullptr &&
               flag->load(std::memory_order_acquire);
    }

    /** Raise the flag (safe from any thread; no-op on null tokens). */
    void
    requestCancel() const
    {
        if (flag != nullptr)
            flag->store(true, std::memory_order_release);
    }

  private:
    std::shared_ptr<std::atomic<bool>> flag;
};

/** The ambient containment context of a thread. */
struct DeadlineContext
{
    Deadline deadline;
    CancelToken cancel;

    bool
    armed() const
    {
        return !deadline.unlimited() || cancel.valid();
    }
};

/** This thread's current context (unarmed when none installed). */
DeadlineContext currentDeadlineContext();

/** Whether this thread has any deadline or cancel token installed —
 *  one thread-local load, the hot-loop guard before checkDeadline().
 *  The driver also bypasses the schedule memo while this is true: a
 *  status that depends on wall-clock time must never be replayed as
 *  authoritative (DESIGN.md §10). */
bool deadlineArmed();

/**
 * Ok while neither the ambient deadline has passed nor the ambient
 * token is cancelled; otherwise a DeadlineExceeded / Cancelled error
 * attributed to `stage`. Cancellation wins when both hold (it was
 * requested explicitly).
 */
Status checkDeadline(const char *stage);

/**
 * Install a containment context for the current scope. The new
 * deadline combines with any outer one (sooner wins); a valid token
 * replaces the outer token, a null token inherits it. `adopt`
 * constructs install the context verbatim — the thread-pool workers
 * use that to mirror the batch caller's context exactly.
 */
class ScopedDeadline
{
  public:
    explicit ScopedDeadline(Deadline d, CancelToken c = {});

    /** Verbatim adoption (no combining with the outer scope). */
    struct AdoptTag
    {
    };
    ScopedDeadline(AdoptTag, const DeadlineContext &ctx);

    ~ScopedDeadline();

    ScopedDeadline(const ScopedDeadline &) = delete;
    ScopedDeadline &operator=(const ScopedDeadline &) = delete;

  private:
    DeadlineContext saved;
    bool savedArmed;
};

} // namespace selvec

#endif // SELVEC_SUPPORT_DEADLINE_HH
