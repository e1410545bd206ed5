/**
 * @file
 * Worker-pool subsystem tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hh"

namespace pifetch {
namespace {

TEST(Parallel, ResolveThreadsZeroIsAuto)
{
    EXPECT_GE(resolveThreads(0), 1u);
    EXPECT_EQ(resolveThreads(3), 3u);
    EXPECT_EQ(resolveThreads(1), 1u);
}

TEST(Parallel, EnvOverrideWins)
{
    // Restore whatever the harness pinned (CI runs this binary with
    // PIFETCH_THREADS=1 and =4) so later tests see the real setting.
    const char *prior = std::getenv("PIFETCH_THREADS");
    const std::string saved = prior ? prior : "";

    ASSERT_EQ(setenv("PIFETCH_THREADS", "5", 1), 0);
    EXPECT_EQ(defaultThreads(), 5u);
    EXPECT_EQ(resolveThreads(0), 5u);
    EXPECT_EQ(resolveThreads(2), 2u);  // explicit request still wins

    for (const char *malformed : {"garbage", "4abc", "2.5"}) {
        ASSERT_EQ(setenv("PIFETCH_THREADS", malformed, 1), 0);
        EXPECT_EQ(defaultThreads(), 1u) << malformed;  // pins serial
    }

    ASSERT_EQ(unsetenv("PIFETCH_THREADS"), 0);
    EXPECT_GE(defaultThreads(), 1u);

    if (prior) {
        ASSERT_EQ(setenv("PIFETCH_THREADS", saved.c_str(), 1), 0);
    }
}

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u, 7u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threads(), threads);
        constexpr std::uint64_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h.store(0);
        pool.parallelFor(n, [&](std::uint64_t i) {
            hits[i].fetch_add(1);
        });
        for (std::uint64_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(Parallel, PoolIsReusable)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(100, [&](std::uint64_t i) {
            sum.fetch_add(i + 1);
        });
        EXPECT_EQ(sum.load(), 5050u) << "round " << round;
    }
}

TEST(Parallel, DisjointSlotsMatchSerial)
{
    constexpr std::uint64_t n = 64;
    auto task = [](std::uint64_t i) {
        // A little deterministic arithmetic per slot.
        std::uint64_t v = i * 2654435761u + 17;
        for (int k = 0; k < 100; ++k)
            v = v * 6364136223846793005ull + 1442695040888963407ull;
        return v;
    };

    std::vector<std::uint64_t> serial(n);
    parallelFor(1, n, [&](std::uint64_t i) { serial[i] = task(i); });

    std::vector<std::uint64_t> parallel(n);
    parallelFor(4, n, [&](std::uint64_t i) { parallel[i] = task(i); });

    EXPECT_EQ(serial, parallel);
}

TEST(Parallel, MoreThreadsThanWork)
{
    ThreadPool pool(8);
    std::atomic<int> count{0};
    pool.parallelFor(3, [&](std::uint64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3);
}

TEST(Parallel, ZeroAndOneIndexDegenerate)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](std::uint64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::uint64_t i) {
        ++calls;
        EXPECT_EQ(i, 0u);
    });
    EXPECT_EQ(calls, 1);
}

TEST(Parallel, TaskExceptionPropagates)
{
    // Same contract at every thread count: the loop drains all
    // indices, then rethrows the first failure (so side effects are
    // identical between the serial fallback and the pool path).
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        std::atomic<int> completed{0};
        bool threw = false;
        try {
            pool.parallelFor(50, [&](std::uint64_t i) {
                if (i == 13)
                    throw std::runtime_error("boom");
                completed.fetch_add(1);
            });
        } catch (const std::runtime_error &e) {
            threw = true;
            EXPECT_EQ(std::string(e.what()), "boom");
        }
        EXPECT_TRUE(threw);
        EXPECT_EQ(completed.load(), 49) << threads << " threads";
        // And the pool survives for the next job.
        std::atomic<int> after{0};
        pool.parallelFor(10, [&](std::uint64_t) {
            after.fetch_add(1);
        });
        EXPECT_EQ(after.load(), 10);
    }
}

} // namespace
} // namespace pifetch
