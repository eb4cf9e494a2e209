/**
 * @file
 * Telemetry registry contracts: fold determinism across thread counts,
 * zero heap allocations on the warmed hot path (counted by
 * alloc_counter.h), disabled-mode behavior, and the JSON export.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "runtime/thread_pool.h"
#include "telemetry/obs.h"
#include "tensor/gemm.h"
#include "alloc_counter.h"
#include "testing_util.h"

namespace snip {
namespace {

/** Fixed instrumented workload: per-shape GEMMs, a strided batch, and
 *  bare parallelFor traffic. Every counter it
 *  bumps is a pure function of these shapes, never of the thread
 *  count. */
void
runWorkload()
{
    std::vector<float> a(128 * 64), b(96 * 64), c(128 * 96, 0.0f);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<float>(i % 13) * 0.25f - 1.0f;
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<float>(i % 7) * 0.5f - 1.5f;
    gemmNT(a.data(), b.data(), c.data(), 128, 96, 64);
    gemmNN(a.data(), b.data(), c.data(), 128, 96,
           64); // b reinterpreted [64,96]
    gemmBatchedNT(a.data(), 16 * 64, b.data(), 0, c.data(), 16 * 6,
                  /*count=*/8, /*m=*/16, /*n=*/6, /*k=*/64,
                  /*group=*/8);
    runtime::parallelFor(0, 1000, 16, [](int64_t, int64_t) {});
}

TEST(Telemetry, ConfigureFromSpecParsing)
{
    ObsGuard obs_guard;
    EXPECT_TRUE(telemetry::configureFromSpec("off"));
    EXPECT_FALSE(telemetry::enabled());
    EXPECT_TRUE(telemetry::configureFromSpec("on"));
    EXPECT_TRUE(telemetry::enabled());
    EXPECT_TRUE(telemetry::configureFromSpec("json:some_path.json"));
    EXPECT_TRUE(telemetry::enabled());
    EXPECT_TRUE(telemetry::configureFromSpec(nullptr)); // unset = off
    EXPECT_FALSE(telemetry::enabled());
    EXPECT_FALSE(telemetry::configureFromSpec("bogus"));
    EXPECT_FALSE(telemetry::configureFromSpec("json:"));
}

TEST(Telemetry, FoldDeterminismAcrossThreadCounts)
{
    ObsGuard obs_guard;
    GlobalPoolGuard pool_guard;
    telemetry::Config cfg;
    cfg.enabled = true;
    telemetry::configure(cfg);

    // Every counter and every timer's call count.
    int64_t ref[telemetry::kNumCounters + telemetry::kNumTimers] = {};
    bool have_ref = false;
    for (int threads : {1, 2, 8}) {
        runtime::setGlobalThreadCount(threads);
        const telemetry::Snapshot before = telemetry::snapshot();
        runWorkload();
        const telemetry::Snapshot after = telemetry::snapshot();
        for (int i = 0; i < telemetry::kNumCounters + telemetry::kNumTimers;
             ++i) {
            const int64_t delta =
                i < telemetry::kNumCounters
                    ? after.counters[i] - before.counters[i]
                    : after.timers[i - telemetry::kNumCounters].count -
                          before.timers[i - telemetry::kNumCounters].count;
            if (!have_ref)
                ref[i] = delta;
            else
                EXPECT_EQ(delta, ref[i])
                    << "counter/timer " << i << " differs at " << threads
                    << " threads";
        }
        have_ref = true;
    }
    // The workload really did count something.
    const int64_t *timer_calls = ref + telemetry::kNumCounters;
    EXPECT_EQ(timer_calls[static_cast<int>(telemetry::Timer::Gemm)], 3);
    EXPECT_GT(timer_calls[static_cast<int>(telemetry::Timer::PoolJob)], 0);
    EXPECT_GT(ref[static_cast<int>(telemetry::Counter::PoolChunks)], 0);
    EXPECT_EQ(
        ref[static_cast<int>(telemetry::Counter::GemmBatchedItems)], 8);
}

TEST(Telemetry, WarmedHotPathAllocatesNothing)
{
    ObsGuard obs_guard;
    telemetry::Config cfg;
    cfg.enabled = true;
    telemetry::configure(cfg);

    // Warm-up creates this thread's shard; everything after is plain
    // stores into it.
    telemetry::count(telemetry::Counter::GemmPackedCalls);
    telemetry::recordTimer(telemetry::Timer::Gemm, 1e-6);

    const int64_t allocs = allocDelta([] {
        for (int i = 0; i < 1000; ++i) {
            telemetry::count(telemetry::Counter::GemmPackedCalls, 3);
            telemetry::count(telemetry::Counter::GemmFlops, 1 << 20);
            telemetry::addSeconds(telemetry::Seconds::PoolBusy, 1e-9);
            telemetry::gaugeMax(telemetry::MaxGauge::ArenaHighWaterBytes,
                                i);
            telemetry::gaugeSet(telemetry::LastGauge::ArenaReservedBytes,
                                i);
            telemetry::recordTimer(telemetry::Timer::PoolJob, 1e-7);
            obs::Scope scoped(telemetry::Timer::Gemm);
        }
    });
    EXPECT_EQ(allocs, 0);
}

TEST(Telemetry, InstrumentedGemmKeepsZeroAllocContract)
{
    ObsGuard obs_guard;
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    telemetry::Config cfg;
    cfg.enabled = true;
    telemetry::configure(cfg);

    std::vector<float> a(64 * 32), b(48 * 32), c(64 * 48);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<float>(i % 11) - 5.0f;
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<float>(i % 5) - 2.0f;
    // Warm the arena slab and the telemetry shard.
    gemmNT(a.data(), b.data(), c.data(), 64, 48, 32);
    gemmNT(a.data(), b.data(), c.data(), 64, 48, 32);

    const int64_t allocs = allocDelta([&] {
        gemmNT(a.data(), b.data(), c.data(), 64, 48, 32);
    });
    EXPECT_EQ(allocs, 0);
}

TEST(Telemetry, DisabledModeIsFree)
{
    ObsGuard obs_guard;
    ASSERT_TRUE(telemetry::configureFromSpec("off"));

    const telemetry::Snapshot before = telemetry::snapshot();
    const int64_t allocs = allocDelta([] {
        for (int i = 0; i < 1000; ++i) {
            telemetry::count(telemetry::Counter::GemmPackedCalls);
            telemetry::addSeconds(telemetry::Seconds::PoolBusy, 1.0);
            telemetry::gaugeMax(telemetry::MaxGauge::ArenaHighWaterBytes,
                                1 << 30);
            telemetry::recordTimer(telemetry::Timer::Gemm, 1.0);
            obs::Scope scoped(telemetry::Timer::Gemm);
        }
    });
    const telemetry::Snapshot after = telemetry::snapshot();
    EXPECT_EQ(allocs, 0);
    for (int i = 0; i < telemetry::kNumCounters; ++i)
        EXPECT_EQ(after.counters[i], before.counters[i]);
    EXPECT_EQ(after.timer(telemetry::Timer::Gemm).count,
              before.timer(telemetry::Timer::Gemm).count);
}

TEST(Telemetry, StepBoundaryAndJsonExport)
{
    ObsGuard obs_guard;
    GlobalPoolGuard pool_guard;
    const std::string path = "test_telemetry_out.json";
    std::remove(path.c_str());

    telemetry::Config cfg;
    cfg.enabled = true;
    cfg.json_path = path;
    cfg.flush_every = 2;
    telemetry::configure(cfg);
    EXPECT_EQ(telemetry::stepsRecorded(), 0);

    runWorkload();
    telemetry::stepBoundary(1);
    runWorkload();
    telemetry::stepBoundary(2); // flush_every=2 rewrites the file here
    EXPECT_EQ(telemetry::stepsRecorded(), 2);
    ASSERT_TRUE(telemetry::flush());

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"schema\": \"snip-telemetry-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"step\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"step\": 2"), std::string::npos);
    for (const char *subsystem :
         {"\"gemm\"", "\"pack_cache\"", "\"arena\"", "\"pool\"",
          "\"attn\"", "\"scheme\"", "\"solve_cache\"", "\"timers\""})
        EXPECT_NE(doc.find(subsystem), std::string::npos)
            << "missing " << subsystem;
    std::remove(path.c_str());
}

TEST(Telemetry, SummaryCoversSubsystems)
{
    ObsGuard obs_guard;
    telemetry::Config cfg;
    cfg.enabled = true;
    telemetry::configure(cfg);
    runWorkload();
    const std::string s = telemetry::summary();
    EXPECT_NE(s.find("gemm"), std::string::npos);
    EXPECT_NE(s.find("pool"), std::string::npos);
    EXPECT_NE(s.find("scheme"), std::string::npos);
}

} // namespace
} // namespace snip
