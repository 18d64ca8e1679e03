#include "support/threadpool.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "support/deadline.hh"
#include "support/stats.hh"

namespace selvec
{

namespace
{

// Set while a thread runs batch tasks, so a nested parallelFor from
// inside a task runs inline instead of oversubscribing.
thread_local bool tls_in_pool_task = false;

} // anonymous namespace

int
hardwareJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
resolveJobs(int requested)
{
    return requested > 0 ? requested : hardwareJobs();
}

ThreadPool::ThreadPool(int jobs)
    : jobCount(jobs < 1 ? 1 : jobs)
{
}

std::vector<std::exception_ptr>
ThreadPool::parallelForAll(size_t n,
                           const std::function<void(size_t)> &fn)
{
    // Counters are recorded on every path (inline included) so the
    // emitted stats do not depend on --jobs.
    globalStats().add("pool.batches");
    globalStats().add("pool.tasks", static_cast<int64_t>(n));
    std::vector<std::exception_ptr> errors(n);
    auto run = [&](size_t i) {
        try {
            fn(i);
        } catch (...) {
            // Each index is claimed exactly once, so its error slot
            // is written without a lock.
            errors[i] = std::current_exception();
        }
    };
    if (jobCount <= 1 || n <= 1 || tls_in_pool_task) {
        for (size_t i = 0; i < n; ++i)
            run(i);
        return errors;
    }

    // The claim counter, the error slots and the threads all belong
    // to this call and are gone when it returns: a batch can never
    // see another batch's indices.
    std::atomic<size_t> next{0};
    DeadlineContext context = currentDeadlineContext();
    auto drain = [&] {
        bool was_in_task = tls_in_pool_task;
        tls_in_pool_task = true;
        {
            // Mirror the caller's deadline/cancellation context
            // exactly, so a pool thread is bounded the same way the
            // caller would be running the task inline.
            ScopedDeadline adopt(ScopedDeadline::AdoptTag{}, context);
            for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
                 i < n; i = next.fetch_add(1, std::memory_order_relaxed))
                run(i);
        }
        tls_in_pool_task = was_in_task;
    };
    std::vector<std::thread> threads;
    size_t want = std::min(static_cast<size_t>(jobCount), n);
    threads.reserve(want);
    try {
        while (threads.size() < want)
            threads.emplace_back(drain);
    } catch (...) {
        // A thread failed to start: the ones already running drain
        // the batch (and must be joined below before `threads` dies).
    }
    if (threads.empty())
        drain();
    for (std::thread &t : threads)
        t.join();
    return errors;
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    std::vector<std::exception_ptr> errors = parallelForAll(n, fn);
    for (const std::exception_ptr &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
}

} // namespace selvec
