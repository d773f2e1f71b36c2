/**
 * @file
 * Contract of the index-claiming pool: results land at their own
 * index, every index runs exactly once, a pool of k never uses more
 * than k threads (the caller among them), pools of 0 and 1 run inline
 * in index order, concurrent callers are serialized, and the
 * lowest-index exception is rethrown after every index has run.  The
 * ThreadPool* suites run under the tsan preset (see CMakePresets.json).
 */

#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {

using smartconf::exec::ThreadPool;

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    int ran = 0;
    pool.parallelFor(7, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 7);
}

TEST(ThreadPool, DefaultConcurrencyAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete)
{
    ThreadPool pool(4);
    std::vector<int> out(500, -1);
    pool.parallelFor(out.size(), [&](std::size_t i) {
        out[i] = static_cast<int>(i);
    });
    int sum = 0;
    for (const int v : out)
        sum += v;
    EXPECT_EQ(sum, 499 * 500 / 2);
}

TEST(ThreadPool, PoolsOfZeroAndOneRunInlineInIndexOrder)
{
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool pool(threads);
        const std::thread::id caller = std::this_thread::get_id();
        std::vector<std::size_t> order;
        bool all_on_caller = true;
        pool.parallelFor(64, [&](std::size_t i) {
            order.push_back(i); // unsynchronized: one thread only
            all_on_caller &= std::this_thread::get_id() == caller;
        });
        EXPECT_TRUE(all_on_caller);
        ASSERT_EQ(order.size(), 64u);
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i);
    }
}

TEST(ThreadPool, NeverRunsBodiesOnMoreThreadsThanItsSize)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::mutex mutex;
    std::set<std::thread::id> runners;
    for (int round = 0; round < 20; ++round)
        pool.parallelFor(256, [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            std::lock_guard<std::mutex> lock(mutex);
            runners.insert(std::this_thread::get_id());
        });
    EXPECT_GE(runners.size(), 1u);
    EXPECT_LE(runners.size(), 4u);
}

TEST(ThreadPool, CallerIsOneOfTheRunners)
{
    // One helper, two indices that wait for each other: they can only
    // both be in flight if the calling thread runs one of them.
    ThreadPool pool(2);
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0;
    std::set<std::thread::id> runners;
    pool.parallelFor(2, [&](std::size_t) {
        std::unique_lock<std::mutex> lock(mutex);
        runners.insert(std::this_thread::get_id());
        ++arrived;
        cv.notify_all();
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return arrived == 2; }));
    });
    EXPECT_EQ(runners.size(), 2u);
    EXPECT_EQ(runners.count(std::this_thread::get_id()), 1u);
}

TEST(ThreadPool, ConcurrentCallersEachGetEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 1000;
    constexpr int kRounds = 50;
    std::vector<std::atomic<int>> hits[2] = {
        std::vector<std::atomic<int>>(kN),
        std::vector<std::atomic<int>>(kN)};
    std::vector<std::thread> callers;
    for (int c = 0; c < 2; ++c)
        callers.emplace_back([&, c] {
            for (int round = 0; round < kRounds; ++round)
                pool.parallelFor(kN, [&](std::size_t i) {
                    hits[c][i].fetch_add(1, std::memory_order_relaxed);
                });
        });
    for (std::thread &t : callers)
        t.join();
    for (int c = 0; c < 2; ++c)
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[c][i].load(), kRounds)
                << "caller " << c << " index " << i;
}

TEST(ThreadPoolStress, SkewedTaskDurationsAllComplete)
{
    // A few grinding indices next to many trivial ones: the other
    // runners must keep draining the short tail while the long ones
    // pin theirs.
    ThreadPool pool(4);
    constexpr std::size_t kTasks = 400;
    std::vector<long> out(kTasks, -1);
    pool.parallelFor(kTasks, [&](std::size_t i) {
        if (i % 37 == 0) {
            // Grinder: ~100x the work of the short indices.
            volatile long acc = 0;
            for (long k = 0; k < 200000; ++k)
                acc = acc + k;
            out[i] = acc >= 0 ? static_cast<long>(i) : -1;
            return;
        }
        out[i] = static_cast<long>(i);
    });
    long sum = 0;
    for (const long v : out)
        sum += v;
    EXPECT_EQ(sum, static_cast<long>(kTasks - 1) * kTasks / 2);
}

TEST(ThreadPoolParallelFor, ResultsLandAtOwnIndex)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 1000;
    std::vector<std::size_t> out(kN, 0);
    pool.parallelFor(kN, [&](std::size_t i) { out[i] = i * 3 + 1; });
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(out[i], i * 3 + 1) << "index " << i;
}

TEST(ThreadPoolParallelFor, ZeroIterationsIsANoop)
{
    ThreadPool pool(2);
    bool touched = false;
    pool.parallelFor(0, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPoolParallelFor, FewerItemsThanWorkers)
{
    ThreadPool pool(8);
    std::vector<int> out(3, 0);
    pool.parallelFor(3, [&](std::size_t i) {
        out[i] = static_cast<int>(i) + 10;
    });
    EXPECT_EQ(out[0], 10);
    EXPECT_EQ(out[1], 11);
    EXPECT_EQ(out[2], 12);
}

TEST(ThreadPoolParallelFor, LowestIndexExceptionWinsAndAllIndicesRun)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool pool(threads);
        constexpr std::size_t kN = 500;
        std::atomic<std::size_t> ran{0};
        try {
            pool.parallelFor(kN, [&](std::size_t i) {
                ran.fetch_add(1, std::memory_order_relaxed);
                if (i == 3 || i == 250 || i == 400)
                    throw std::runtime_error("body " +
                                             std::to_string(i));
            });
            FAIL() << "expected parallelFor to rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "body 3");
        }
        // Every index still executed; a throwing body does not abort
        // the rest of the grid.
        EXPECT_EQ(ran.load(), kN);
        // The pool survives and keeps working.
        std::atomic<int> n{0};
        pool.parallelFor(8, [&](std::size_t) { n.fetch_add(1); });
        EXPECT_EQ(n.load(), 8);
    }
}

TEST(ThreadPoolParallelFor, RepeatedCalls)
{
    ThreadPool pool(4);
    std::vector<double> out(256, 0.0);
    for (int round = 0; round < 10; ++round) {
        pool.parallelFor(out.size(), [&](std::size_t i) {
            out[i] = static_cast<double>(i) * round;
        });
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], static_cast<double>(i) * round);
    }
}

} // namespace
