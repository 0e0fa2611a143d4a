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
#include <optional>
#include <thread>
#include <vector>

namespace imo::sweep
{

/**
 * Run every task on @p jobs worker threads and return their results
 * in input order, handing each task its worker's context: @p make_ctx
 * runs once on each worker thread (once on the calling thread when
 * the run is inline), and every task that worker executes receives
 * the context by reference. Built for heavy reusable scratch state —
 * e.g. a live-point window runner whose executor every restore
 * overwrites completely — where per-task construction would rival the
 * task itself. Results must stay pure functions of the task inputs,
 * so a context must not carry state between tasks that can influence
 * a result.
 *
 * A task that throws poisons the run: the first exception (by task
 * index, not completion order) is rethrown after all workers have
 * drained, so partial results never escape silently. A context that
 * fails to construct is rethrown the same way, after any task error.
 *
 * Cooperative cancellation: when @p cancel is non-null and becomes
 * nonzero (typically from a SIGINT handler), workers stop pulling new
 * tasks; tasks already running finish normally. @p completed (when
 * non-null) is sized to the task count and records, per slot, whether
 * its task ran to completion — the caller uses it to emit a partial
 * report of exactly the finished work.
 *
 * @param make_ctx   per-worker context factory
 * @param tasks      independent closures; each must not touch shared
 *                   mutable state
 * @param jobs       worker-thread count; 0 and 1 both mean "run inline
 *                   on the calling thread"
 * @param cancel     optional stop flag polled between tasks
 * @param completed  optional per-slot completion record
 */
template <typename R, typename Ctx>
std::vector<R>
runOrderedWith(const std::function<Ctx()> &make_ctx,
               const std::vector<std::function<R(Ctx &)>> &tasks,
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
    const unsigned n = static_cast<unsigned>(
        std::clamp<std::size_t>(jobs, 1, tasks.size()));
    // A context that fails to construct must not terminate the
    // process (worker threads have no caller to throw to); it is
    // recorded per worker and rethrown after the task errors.
    std::vector<std::exception_ptr> ctx_errors(n);

    auto worker = [&](unsigned t) {
        std::optional<Ctx> ctx;
        try {
            ctx.emplace(make_ctx());
        } catch (...) {
            ctx_errors[t] = std::current_exception();
            return;
        }
        for (;;) {
            if (cancel && *cancel)
                return;
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks.size())
                return;
            try {
                results[i] = tasks[i](*ctx);
                if (completed)
                    (*completed)[i] = 1;
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    if (n == 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (unsigned t = 0; t < n; ++t)
            pool.emplace_back(worker, t);
        for (std::thread &t : pool)
            t.join();
    }

    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    for (const std::exception_ptr &e : ctx_errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

/**
 * runOrderedWith() over an empty context: the same ordering, error
 * and cancellation contract for plain closures.
 */
template <typename R>
std::vector<R>
runOrdered(const std::vector<std::function<R()>> &tasks,
           unsigned jobs,
           const volatile std::sig_atomic_t *cancel = nullptr,
           std::vector<std::uint8_t> *completed = nullptr)
{
    struct NoContext
    {
    };
    std::vector<std::function<R(NoContext &)>> with;
    with.reserve(tasks.size());
    for (const std::function<R()> &task : tasks)
        with.emplace_back([&task](NoContext &) { return task(); });
    return runOrderedWith<R, NoContext>([] { return NoContext{}; }, with,
                                        jobs, cancel, completed);
}

} // namespace imo::sweep

#endif // IMO_SWEEP_ENGINE_HH
