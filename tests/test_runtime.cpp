/**
 * @file
 * The parallel execution runtime: pool lifecycle, range coverage,
 * static partitioning, nested calls, exception propagation, the
 * spin-then-park dispatch paths, and the SNIP_THREADS sizing knob.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/env_config.h"
#include "runtime/thread_pool.h"

namespace snip {
namespace runtime {
namespace {

TEST(ThreadPool, StartupAndShutdownAtEveryWidth)
{
    for (int n : {1, 2, 3, 8}) {
        ThreadPool pool(n);
        EXPECT_EQ(pool.numThreads(), n);
        std::atomic<int64_t> sum{0};
        pool.parallelFor(0, 100, 7, [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i)
                sum += i;
        });
        EXPECT_EQ(sum.load(), 99 * 100 / 2);
    } // destructor joins workers; reaching the next loop proves shutdown
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce)
{
    ThreadPool pool(4);
    const int64_t n = 10007; // prime, not a grain multiple
    std::vector<int> hits(static_cast<size_t>(n), 0);
    pool.parallelFor(0, n, 64, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            ++hits[static_cast<size_t>(i)];
    });
    for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[static_cast<size_t>(i)], 1) << "index " << i;
}

TEST(ThreadPool, EmptyAndBackwardRangesInvokeNothing)
{
    ThreadPool pool(2);
    int calls = 0;
    auto count = [&](int64_t, int64_t) { ++calls; };
    pool.parallelFor(0, 0, 1, count);
    pool.parallelFor(5, 5, 1, count);
    pool.parallelFor(10, 3, 1, count);
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, NonPositiveGrainIsClampedToOne)
{
    ThreadPool pool(2);
    std::atomic<int64_t> visited{0};
    pool.parallelFor(0, 16, 0, [&](int64_t i0, int64_t i1) {
        EXPECT_EQ(i1 - i0, 1); // grain 0 -> unit chunks
        visited += i1 - i0;
    });
    EXPECT_EQ(visited.load(), 16);
    visited = 0;
    pool.parallelFor(0, 16, -5, [&](int64_t i0, int64_t i1) {
        visited += i1 - i0;
    });
    EXPECT_EQ(visited.load(), 16);
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount)
{
    // Static range partitioning: the set of (i0, i1) chunks must be a
    // pure function of (begin, end, grain) — never of the worker count.
    auto chunksOf = [](int threads) {
        ThreadPool pool(threads);
        std::mutex mu;
        std::set<std::pair<int64_t, int64_t>> chunks;
        pool.parallelFor(3, 250, 17, [&](int64_t i0, int64_t i1) {
            std::lock_guard<std::mutex> lk(mu);
            chunks.emplace(i0, i1);
        });
        return chunks;
    };
    const auto serial = chunksOf(1);
    EXPECT_EQ(serial, chunksOf(2));
    EXPECT_EQ(serial, chunksOf(8));
    // And the chunks tile [3, 250) with stride 17 starting at 3.
    int64_t expect_begin = 3;
    for (const auto &[i0, i1] : serial) {
        EXPECT_EQ(i0, expect_begin);
        EXPECT_EQ(i1, std::min<int64_t>(i0 + 17, 250));
        expect_begin = i1;
    }
    EXPECT_EQ(expect_begin, 250);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100, 1,
                         [&](int64_t i0, int64_t) {
                             if (i0 == 37)
                                 throw std::runtime_error("chunk 37");
                         }),
        std::runtime_error);
    // The pool must remain fully usable after a throwing job.
    std::atomic<int64_t> sum{0};
    pool.parallelFor(0, 10, 1, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            sum += i;
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    std::atomic<int64_t> total{0};
    pool.parallelFor(0, 8, 1, [&](int64_t o0, int64_t o1) {
        for (int64_t o = o0; o < o1; ++o) {
            EXPECT_TRUE(ThreadPool::inParallelRegion());
            // Nested call: must execute inline on this thread.
            pool.parallelFor(0, 100, 10, [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i)
                    total += 1;
            });
        }
    });
    EXPECT_FALSE(ThreadPool::inParallelRegion());
    EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ThreadPool, SingleChunkRunsOnCallerThread)
{
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.parallelFor(0, 5, 100, [&](int64_t, int64_t) {
        ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, caller);
}

/** Far longer than the pool's spin bound (tens of microseconds): a
 *  thread idle or waiting this long has parked. */
constexpr std::chrono::milliseconds kParkedFor{20};

/** Bound on waiting for another pool thread: far past any scheduling
 *  delay, so only a lost wakeup reaches it. */
constexpr std::chrono::seconds kWaitLimit{10};

/** Poll @p flag until it is set or kWaitLimit passes; true when set.
 *  Keeps a lost wakeup a test failure instead of a hang. */
bool
waitForFlag(const std::atomic<bool> &flag)
{
    const auto deadline = std::chrono::steady_clock::now() + kWaitLimit;
    while (!flag.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

TEST(ThreadPool, ParkedWorkersWakeForTheNextJob)
{
    for (int n : {2, 4}) {
        ThreadPool pool(n);
        for (int round = 0; round < 3; ++round) {
            std::this_thread::sleep_for(kParkedFor); // workers park
            // Chunk 0 waits until chunk 1 has started, so the job can
            // only finish if a parked worker woke and took a chunk.
            std::atomic<bool> second_started{false};
            bool first_saw_second = false;
            std::thread::id ran_on[2];
            pool.parallelFor(0, 2, 1, [&](int64_t i0, int64_t) {
                ran_on[i0] = std::this_thread::get_id();
                if (i0 == 1)
                    second_started.store(true, std::memory_order_release);
                else
                    first_saw_second = waitForFlag(second_started);
            });
            EXPECT_TRUE(first_saw_second)
                << "width " << n << " round " << round;
            EXPECT_NE(ran_on[0], ran_on[1]);
        }
    }
}

TEST(ThreadPool, SubmitterParksUntilALongChunkFinishes)
{
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    // A chunk on a worker outlasts the submitter's spin bound. A chunk
    // on the caller first waits until a worker chunk has started, so
    // the submitter runs out of chunks early and must park until the
    // worker's finish wakes it.
    int caller_chunks = 0;
    auto job = [&](bool worker_throws, std::vector<int> &written) {
        std::atomic<bool> worker_started{false};
        caller_chunks = 0;
        pool.parallelFor(0, 2, 1, [&](int64_t i0, int64_t) {
            if (std::this_thread::get_id() == caller) {
                ++caller_chunks;
                EXPECT_TRUE(waitForFlag(worker_started));
            } else {
                worker_started.store(true, std::memory_order_release);
                std::this_thread::sleep_for(kParkedFor);
                if (worker_throws)
                    throw std::runtime_error("late chunk");
            }
            written[static_cast<size_t>(i0)] = 1;
        });
    };
    std::vector<int> written(2, 0);
    job(/*worker_throws=*/false, written);
    EXPECT_EQ(written, std::vector<int>({1, 1}));

    std::vector<int> partial(2, 0);
    EXPECT_THROW(job(/*worker_throws=*/true, partial), std::runtime_error);
    // Every chunk finished before the rethrow: the caller's wrote.
    EXPECT_EQ(partial[0] + partial[1], caller_chunks);
}

TEST(ThreadPool, ShutdownWhileWorkersSpin)
{
    // Destroy each pool right after a job, while its workers are still
    // polling for the next one. A shutdown that missed a spinning or
    // parking worker hangs here; one that noticed the stop only by
    // timed polling blows the (generous, sanitizer-proof) bound.
    const auto t0 = std::chrono::steady_clock::now();
    for (int n : {2, 8}) {
        for (int cycle = 0; cycle < 200; ++cycle) {
            ThreadPool pool(n);
            std::atomic<int64_t> sum{0};
            pool.parallelFor(0, 16, 1, [&](int64_t i0, int64_t) {
                sum.fetch_add(i0, std::memory_order_relaxed);
            });
            ASSERT_EQ(sum.load(std::memory_order_relaxed), 15 * 16 / 2);
        }
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(30));
}

TEST(Runtime, DefaultThreadCountHonorsSnipThreadsEnv)
{
    const char *saved = std::getenv("SNIP_THREADS");
    std::string saved_value = saved ? saved : "";

    ASSERT_EQ(setenv("SNIP_THREADS", "3", 1), 0);
    reloadEnvConfig();
    EXPECT_EQ(defaultThreadCount(), 3);
    ASSERT_EQ(setenv("SNIP_THREADS", "not-a-number", 1), 0);
    reloadEnvConfig();
    EXPECT_GE(defaultThreadCount(), 1); // falls back to hardware
    ASSERT_EQ(setenv("SNIP_THREADS", "0", 1), 0);
    reloadEnvConfig();
    EXPECT_GE(defaultThreadCount(), 1);

    if (saved)
        setenv("SNIP_THREADS", saved_value.c_str(), 1);
    else
        unsetenv("SNIP_THREADS");
    reloadEnvConfig();
}

TEST(Runtime, GlobalPoolIsSharedAndResizable)
{
    ThreadPool &a = globalThreadPool();
    EXPECT_EQ(&a, &globalThreadPool()); // one instance per process

    setGlobalThreadCount(2);
    EXPECT_EQ(globalThreadPool().numThreads(), 2);
    std::atomic<int64_t> sum{0};
    parallelFor(0, 50, 5, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            sum += i;
    });
    EXPECT_EQ(sum.load(), 49 * 50 / 2);

    setGlobalThreadCount(0); // restore the SNIP_THREADS/hardware default
    EXPECT_EQ(globalThreadPool().numThreads(), defaultThreadCount());
}

TEST(Runtime, PoolOrGlobalResolves)
{
    ThreadPool local(2);
    EXPECT_EQ(&poolOrGlobal(&local), &local);
    EXPECT_EQ(&poolOrGlobal(nullptr), &globalThreadPool());
}

} // namespace
} // namespace runtime
} // namespace snip
