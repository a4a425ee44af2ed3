/**
 * @file
 * Fixed-size worker pool for scheduling independent simulation runs.
 *
 * Jobs are arbitrary callables; submit() returns a std::future so
 * callers collect results in *submission* order regardless of
 * completion order, which is what keeps parallel experiment output
 * bit-identical to serial execution. Exceptions thrown by a job are
 * captured in its future and rethrown at get().
 */

#ifndef SOFTWATT_SIM_THREAD_POOL_HH
#define SOFTWATT_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace softwatt
{

/**
 * A fixed-size pool of worker threads draining a FIFO job queue.
 *
 * The destructor waits for every queued job to run to completion
 * before joining the workers (no job submitted before destruction is
 * ever dropped). A single-threaded pool executes jobs strictly in
 * submission order.
 */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; 0 is clamped to 1. Use
     *        defaultThreads() for "one per hardware thread".
     */
    explicit ThreadPool(unsigned num_threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Drains all queued work, then joins the workers. */
    ~ThreadPool();

    /** Number of worker threads. */
    unsigned threads() const { return unsigned(workers.size()); }

    /** Hardware concurrency, clamped to at least 1. */
    static unsigned defaultThreads();

    /**
     * Enqueue a callable; its result (or exception) is delivered
     * through the returned future. The queue is unbounded.
     */
    template <typename F>
    auto
    submit(F &&job) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(job));
        std::future<R> result = task->get_future();
        enqueue([task] { (*task)(); });
        return result;
    }

    /** Jobs executed so far (for tests and diagnostics). */
    std::uint64_t completedJobs() const;

    /**
     * Discard every queued-but-unstarted job and return how many
     * were dropped. In-flight jobs are unaffected. The future of a
     * discarded job reports std::future_error(broken_promise) at
     * get(), which is how a draining experiment distinguishes
     * "never ran" from "ran and failed".
     */
    std::size_t cancelPending();

  private:
    void enqueue(std::function<void()> job);
    void workerLoop();

    mutable std::mutex mutex;
    std::condition_variable wakeWorkers;
    std::deque<std::function<void()>> jobs;
    std::vector<std::thread> workers;
    std::uint64_t numCompleted = 0;
    bool shuttingDown = false;
};

} // namespace softwatt

#endif // SOFTWATT_SIM_THREAD_POOL_HH
