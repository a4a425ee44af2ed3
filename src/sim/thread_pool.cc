#include "thread_pool.hh"

namespace softwatt
{

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = 1;
    workers.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        shuttingDown = true;
    }
    wakeWorkers.notify_all();
    for (std::thread &worker : workers)
        worker.join();
}

unsigned
ThreadPool::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::uint64_t
ThreadPool::completedJobs() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return numCompleted;
}

std::size_t
ThreadPool::cancelPending()
{
    std::deque<std::function<void()>> dropped;
    {
        std::lock_guard<std::mutex> lock(mutex);
        dropped.swap(jobs);
    }
    // Destroy outside the lock: dropping a packaged_task breaks its
    // promise, which may run arbitrary future-side destructors.
    return dropped.size();
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        jobs.push_back(std::move(job));
    }
    wakeWorkers.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex);
            wakeWorkers.wait(lock, [this] {
                return shuttingDown || !jobs.empty();
            });
            // Drain the queue even when shutting down: jobs
            // submitted before the destructor must all run.
            if (jobs.empty())
                return;
            job = std::move(jobs.front());
            jobs.pop_front();
        }
        job();
        {
            std::lock_guard<std::mutex> lock(mutex);
            ++numCompleted;
        }
    }
}

} // namespace softwatt
