/**
 * @file
 * Generic ordered parallel-for engine for configuration sweeps.
 *
 * Tasks are independent closures; a fixed-size std::thread pool drains
 * an atomic work queue and every task writes its result into the slot
 * matching its input index. Output order therefore never depends on
 * scheduling: runOrdered(tasks, 1) and runOrdered(tasks, N) produce
 * element-wise identical vectors as long as each task is a pure
 * function of its inputs (the simulator guarantees this — each sweep
 * point constructs a fully isolated machine instance).
 */

#ifndef IMO_SWEEP_ENGINE_HH
#define IMO_SWEEP_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace imo::sweep
{

/**
 * Run every task on @p jobs worker threads and return their results
 * in input order. A task that throws poisons the run: the first
 * exception (by task index, not completion order) is rethrown after
 * all workers have drained, so partial results never escape silently.
 *
 * Cooperative cancellation: when @p cancel is non-null and becomes
 * nonzero (typically from a SIGINT handler), workers stop pulling new
 * tasks; tasks already running finish normally. @p completed (when
 * non-null) is sized to the task count and records, per slot, whether
 * its task ran to completion — the caller uses it to emit a partial
 * report of exactly the finished work.
 *
 * @param tasks      independent closures; each must not touch shared
 *                   mutable state
 * @param jobs       worker-thread count; 0 and 1 both mean "run inline
 *                   on the calling thread"
 * @param cancel     optional stop flag polled between tasks
 * @param completed  optional per-slot completion record
 */
template <typename R>
std::vector<R>
runOrdered(const std::vector<std::function<R()>> &tasks,
           unsigned jobs,
           const volatile std::sig_atomic_t *cancel = nullptr,
           std::vector<std::uint8_t> *completed = nullptr)
{
    std::vector<R> results(tasks.size());
    if (completed)
        completed->assign(tasks.size(), 0);
    if (tasks.empty())
        return results;

    std::atomic<std::size_t> next{0};
    // First failing task by *index*, so the surfaced error does not
    // depend on which worker happened to hit it first.
    std::vector<std::exception_ptr> errors(tasks.size());

    auto worker = [&] {
        for (;;) {
            if (cancel && *cancel)
                return;
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks.size())
                return;
            try {
                results[i] = tasks[i]();
                if (completed)
                    (*completed)[i] = 1;
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    const unsigned n = static_cast<unsigned>(
        std::clamp<std::size_t>(jobs, 1, tasks.size()));
    if (n == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (unsigned t = 0; t < n; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

} // namespace imo::sweep

#endif // IMO_SWEEP_ENGINE_HH
