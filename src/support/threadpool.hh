/**
 * @file
 * Batch-parallel loops over an index range, deliberately without work
 * stealing: parallelFor(n, fn) starts min(jobs, n) threads, which
 * claim indices from a counter local to the call until the batch
 * drains, and joins every one of them before it returns. Tasks are
 * claimed in index order, so a batch is a deterministic partition of
 * [0, n) no matter how many threads run it — the property the
 * driver's byte-identical-output contract leans on (see DESIGN.md §8).
 * Nothing of a batch outlives its call, so back-to-back batches on
 * one pool never share a thread, a counter or an error slot.
 *
 * With one job, parallelFor degrades to a plain inline loop on the
 * calling thread: `--jobs 1` is bit-for-bit today's serial behavior,
 * not a one-thread simulation of parallelism. When threads do run
 * tasks, the caller never executes tasks itself; a task that needs
 * the caller's context (trace spans, stats sinks) must capture it
 * explicitly (TraceContextScope, ScopedStatsSink). The caller's
 * deadline/cancellation context, by contrast, is republished
 * automatically: every task of a batch runs under the DeadlineContext
 * the caller had when it started the batch, so `--deadline-ms` bounds
 * pool threads too (DESIGN.md §10).
 *
 * Re-entrancy: parallelFor called from inside a pool task runs the
 * nested batch inline on that thread — nesting never deadlocks and
 * never oversubscribes.
 *
 * Failure semantics: parallelForAll drains the whole batch and
 * returns one exception_ptr slot per index (null = task succeeded),
 * so no concurrent failure is ever dropped. parallelFor is a
 * convenience wrapper that rethrows the lowest-index exception —
 * deterministic at any job count.
 *
 * Every batch bumps the jobs-invariant `pool.batches` / `pool.tasks`
 * counters (never a thread count, which would vary with --jobs and
 * break document byte-identity).
 */

#ifndef SELVEC_SUPPORT_THREADPOOL_HH
#define SELVEC_SUPPORT_THREADPOOL_HH

#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

namespace selvec
{

/** Hardware concurrency, clamped to at least 1. */
int hardwareJobs();

/**
 * Resolve a --jobs request: positive values pass through, anything
 * else (0, negative: "pick for me") resolves to hardwareJobs().
 */
int resolveJobs(int requested);

class ThreadPool
{
  public:
    /** A pool of `jobs` threads per batch (clamped to >= 1). A 1-job
     *  pool never starts a thread; parallelFor then runs inline. */
    explicit ThreadPool(int jobs);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The resolved job count (>= 1). */
    int jobs() const { return jobCount; }

    /**
     * Run fn(0) .. fn(n-1), returning once all have finished. Inline
     * on the calling thread when the pool has one job, n <= 1, or the
     * call is re-entrant from a pool task; otherwise tasks run only
     * on pool threads and the caller waits. If any tasks threw, the
     * lowest-index exception is rethrown after the batch drains.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Like parallelFor, but collect instead of rethrow: the returned
     * vector has one slot per index, null on success, the task's
     * exception otherwise. Always drains the whole batch — one failed
     * task never prevents its siblings from running, and no failure
     * is lost. The quarantine layer of evaluateSuite builds on this.
     */
    std::vector<std::exception_ptr>
    parallelForAll(size_t n, const std::function<void(size_t)> &fn);

  private:
    const int jobCount;
};

} // namespace selvec

#endif // SELVEC_SUPPORT_THREADPOOL_HH
