/**
 * @file
 * Unit tests for the worker pool underneath the experiment runner:
 * submission ordering, exception propagation through futures, and
 * destructor shutdown with work still queued.
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/thread_pool.hh"

using namespace softwatt;

TEST(ThreadPool, SubmitReturnsFutureValue)
{
    ThreadPool pool(2);
    auto fut = pool.submit([] { return 42; });
    EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SingleThreadRunsJobsInSubmissionOrder)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<void>> done;
    for (int i = 0; i < 16; ++i)
        done.push_back(pool.submit([&order, i] { order.push_back(i); }));
    for (auto &f : done)
        f.get();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(bad.get(), std::runtime_error);

    // The worker survives a throwing job.
    auto good = pool.submit([] { return 7; });
    EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, DestructorDrainsQueuedWork)
{
    std::atomic<int> executed{0};
    {
        ThreadPool pool(1);
        // The first job blocks the lone worker so the rest are still
        // queued when the destructor runs.
        pool.submit([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            ++executed;
        });
        for (int i = 0; i < 8; ++i)
            pool.submit([&] { ++executed; });
    }
    EXPECT_EQ(executed.load(), 9);
}

TEST(ThreadPool, CompletedJobsReachesSubmittedCount)
{
    ThreadPool pool(2);
    std::vector<std::future<void>> done;
    for (int i = 0; i < 5; ++i)
        done.push_back(pool.submit([] {}));
    for (auto &f : done)
        f.get();
    // The counter is bumped just after each job finishes; the futures
    // become ready first, so give the workers a moment.
    for (int spin = 0; pool.completedJobs() < 5 && spin < 1000; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(pool.completedJobs(), 5u);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    auto fut = pool.submit([] { return 1; });
    EXPECT_EQ(fut.get(), 1);
}

TEST(ThreadPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

TEST(ThreadPoolStress, ManyShortJobsWithExceptionsAndEarlyExit)
{
    // TSan-targeted stress: many tiny jobs racing across workers,
    // a regular sprinkling of throwing jobs, only half the futures
    // drained in-test — the destructor must cleanly finish the rest.
    constexpr int numJobs = 500;
    std::atomic<int> succeeded{0};
    std::vector<std::future<int>> futures;
    {
        ThreadPool pool(4);
        futures.reserve(numJobs);
        for (int i = 0; i < numJobs; ++i) {
            futures.push_back(pool.submit([i, &succeeded]() -> int {
                if (i % 7 == 3)
                    throw std::runtime_error("synthetic failure");
                ++succeeded;
                return i;
            }));
        }
        // Drain only the first half while the pool is still alive.
        for (int i = 0; i < numJobs / 2; ++i) {
            if (i % 7 == 3) {
                EXPECT_THROW(futures[std::size_t(i)].get(),
                             std::runtime_error);
            } else {
                EXPECT_EQ(futures[std::size_t(i)].get(), i);
            }
        }
    }
    // The destructor drained the remainder: every future is ready.
    for (int i = numJobs / 2; i < numJobs; ++i) {
        if (i % 7 == 3) {
            EXPECT_THROW(futures[std::size_t(i)].get(),
                         std::runtime_error);
        } else {
            EXPECT_EQ(futures[std::size_t(i)].get(), i);
        }
    }
    int expected_failures = 0;
    for (int i = 0; i < numJobs; ++i)
        expected_failures += (i % 7 == 3);
    EXPECT_EQ(succeeded.load(), numJobs - expected_failures);
}

TEST(ThreadPool, CancelPendingDiscardsQueuedJobsOnly)
{
    std::atomic<int> executed{0};
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    ThreadPool pool(1);

    // Occupy the lone worker so everything else stays queued.
    auto running = pool.submit([&] {
        started = true;
        while (!release.load())
            std::this_thread::yield();
        ++executed;
        return 1;
    });
    // Don't race the worker's dequeue: only once the blocking job is
    // running is "everything queued after it" well-defined.
    while (!started.load())
        std::this_thread::yield();

    std::vector<std::future<int>> queued;
    for (int i = 0; i < 8; ++i) {
        queued.push_back(pool.submit([&] {
            ++executed;
            return 2;
        }));
    }

    // All eight are still pending; cancel discards exactly them.
    std::size_t dropped = pool.cancelPending();
    EXPECT_EQ(dropped, 8u);

    release = true;
    EXPECT_EQ(running.get(), 1);  // in-flight work is never touched

    // Discarded jobs surface as broken promises, not hangs.
    for (auto &f : queued)
        EXPECT_THROW(f.get(), std::future_error);
    EXPECT_EQ(executed.load(), 1);

    // The pool remains usable after a drain.
    auto after = pool.submit([] { return 3; });
    EXPECT_EQ(after.get(), 3);
}

TEST(ThreadPool, CancelPendingOnIdlePoolIsANoOp)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.cancelPending(), 0u);
    auto f = pool.submit([] { return 5; });
    EXPECT_EQ(f.get(), 5);
}
