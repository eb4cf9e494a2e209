/**
 * @file
 * The instrumentation primitive and the sink plumbing both outputs
 * share: one obs::Scope feeds the telemetry histogram and the trace
 * span from the same clock pair, arms each output independently, is
 * free when both are off and allocation-free when warmed (counted by
 * alloc_counter.h); the sink grammar is one parser for both knobs; the
 * export channel drops stale documents and carries the
 * `telemetry.export` fault seam for both outputs.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "runtime/fault_injection.h"
#include "runtime/thread_pool.h"
#include "telemetry/obs.h"
#include "tensor/gemm.h"
#include "testing_util.h"

namespace snip {
namespace {

void
configureBoth(bool telemetry_on, bool trace_on)
{
    telemetry::Config tc;
    tc.enabled = telemetry_on;
    telemetry::configure(tc);
    trace::Config sc;
    sc.enabled = trace_on;
    trace::configure(sc);
}

/** Keep a scope open long enough that its duration is well above the
 *  clock's resolution. */
void
spin()
{
    const int64_t t0 = obs::nowNs();
    while (obs::nowNs() - t0 < 20000) {
    }
}

const telemetry::Snapshot::TimerStat &
waitTimer(const telemetry::Snapshot &s)
{
    return s.timer(telemetry::Timer::SchemeWait);
}

/** Duration in ns of the newest exported span named @p name, or -1. */
int64_t
spanDurationNs(const std::string &name)
{
    const std::string doc = trace::renderJson();
    const size_t at = doc.rfind("\"name\": \"" + name + "\"");
    if (at == std::string::npos)
        return -1;
    const size_t line = doc.rfind('\n', at);
    const size_t dur = doc.find("\"dur\": ", line);
    if (dur == std::string::npos || dur > at)
        return -1;
    const double us = std::atof(doc.c_str() + dur + 7);
    return static_cast<int64_t>(std::llround(us * 1e3));
}

TEST(Obs, OneClockPairFeedsHistogramAndSpan)
{
    ObsGuard obs_guard;
    configureBoth(true, true);

    const telemetry::Snapshot before = telemetry::snapshot();
    {
        obs::Scope scope(telemetry::Timer::SchemeWait,
                         trace::Category::Scheme, "obs_pair_probe", "k",
                         1);
        spin();
    }
    const telemetry::Snapshot after = telemetry::snapshot();

    EXPECT_EQ(waitTimer(after).count - waitTimer(before).count, 1);
    const double timer_s =
        waitTimer(after).sum_seconds - waitTimer(before).sum_seconds;
    const int64_t span_ns = spanDurationNs("obs_pair_probe");
    ASSERT_GT(span_ns, 0);
    // The same interval in both outputs: two separate clock pairs would
    // differ by at least one clock read (tens of ns).
    EXPECT_NEAR(timer_s, static_cast<double>(span_ns) * 1e-9, 1e-12);
}

TEST(Obs, EachOutputArmsIndependently)
{
    ObsGuard obs_guard;

    configureBoth(true, false);
    int64_t spans = trace::spansRecorded();
    telemetry::Snapshot before = telemetry::snapshot();
    {
        obs::Scope scope(telemetry::Timer::SchemeWait,
                         trace::Category::Scheme, "obs_telemetry_only");
    }
    EXPECT_EQ(waitTimer(telemetry::snapshot()).count,
              waitTimer(before).count + 1);
    EXPECT_EQ(trace::spansRecorded(), spans);

    configureBoth(false, true);
    before = telemetry::snapshot();
    {
        obs::Scope scope(telemetry::Timer::SchemeWait,
                         trace::Category::Scheme, "obs_trace_only");
    }
    EXPECT_EQ(waitTimer(telemetry::snapshot()).count,
              waitTimer(before).count);
    EXPECT_GE(spanDurationNs("obs_trace_only"), 0);

    // A null name (a sampled-out site) records the metric, no span.
    configureBoth(true, true);
    spans = trace::spansRecorded();
    before = telemetry::snapshot();
    {
        obs::Scope scope(telemetry::Timer::SchemeWait,
                         trace::Category::Scheme, nullptr);
    }
    EXPECT_EQ(waitTimer(telemetry::snapshot()).count,
              waitTimer(before).count + 1);
    EXPECT_EQ(trace::spansRecorded(), spans);
}

TEST(Obs, MetricFeedsTimerAndSecondsTogether)
{
    ObsGuard obs_guard;
    configureBoth(true, false);

    const telemetry::Snapshot before = telemetry::snapshot();
    {
        obs::Scope scope({telemetry::Timer::SchemeWait,
                          telemetry::Seconds::SchemeWorker},
                         trace::Category::Scheme, "obs_metric_probe");
        spin();
    }
    {
        obs::Scope seconds_only(telemetry::Seconds::SchemeWorker);
        spin();
    }
    const telemetry::Snapshot after = telemetry::snapshot();

    const double timer_s =
        waitTimer(after).sum_seconds - waitTimer(before).sum_seconds;
    const double worker_s =
        after.secondsOf(telemetry::Seconds::SchemeWorker) -
        before.secondsOf(telemetry::Seconds::SchemeWorker);
    EXPECT_EQ(waitTimer(after).count - waitTimer(before).count, 1);
    EXPECT_GT(timer_s, 0.0);
    // The seconds slot got the first scope's interval plus the second.
    EXPECT_GT(worker_s, timer_s);
}

TEST(Obs, TimerCountIsTheCallCount)
{
    ObsGuard obs_guard;
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(2);
    configureBoth(true, false);

    std::vector<float> a(32 * 16, 0.5f), b(24 * 16, 0.25f), c(32 * 24);
    const telemetry::Snapshot before = telemetry::snapshot();
    for (int i = 0; i < 3; ++i)
        gemmNT(a.data(), b.data(), c.data(), 32, 24, 16);
    runtime::parallelFor(0, 100, 10, [](int64_t, int64_t) {});
    const telemetry::Snapshot after = telemetry::snapshot();

    EXPECT_EQ(after.timer(telemetry::Timer::Gemm).count -
                  before.timer(telemetry::Timer::Gemm).count,
              3);
    EXPECT_GE(after.timer(telemetry::Timer::PoolJob).count -
                  before.timer(telemetry::Timer::PoolJob).count,
              1);
    EXPECT_EQ(after.counter(telemetry::Counter::GemmPackedCalls) -
                  before.counter(telemetry::Counter::GemmPackedCalls),
              3);
}

TEST(Obs, OffScopeIsFree)
{
    ObsGuard obs_guard;
    configureBoth(false, false);

    const telemetry::Snapshot before = telemetry::snapshot();
    const int64_t spans = trace::spansRecorded();
    const int64_t allocs = allocDelta([] {
        for (int i = 0; i < 1000; ++i) {
            obs::Scope timed(telemetry::Timer::SchemeWait,
                             trace::Category::Scheme, "obs_off", "i", i);
            obs::Scope span(trace::Category::Scheme, "obs_off_span");
            obs::Scope seconds(telemetry::Seconds::SchemeWorker);
        }
    });
    EXPECT_EQ(allocs, 0);
    EXPECT_EQ(waitTimer(telemetry::snapshot()).count,
              waitTimer(before).count);
    EXPECT_EQ(trace::spansRecorded(), spans);
}

TEST(Obs, WarmedArmedScopeAllocatesNothing)
{
    ObsGuard obs_guard;
    configureBoth(true, true);
    {
        // Creates this thread's telemetry shard and trace ring.
        obs::Scope warm(telemetry::Timer::SchemeWait,
                        trace::Category::Scheme, "obs_warm");
    }
    const int64_t allocs = allocDelta([] {
        for (int i = 0; i < 10000; ++i) {
            obs::Scope scope(
                {telemetry::Timer::SchemeWait,
                 telemetry::Seconds::SchemeWorker},
                trace::Category::Scheme, "obs_hot", "i", i, "j", -i);
        }
    });
    EXPECT_EQ(allocs, 0);
}

TEST(Obs, SinkGrammarIsSharedByBothKnobs)
{
    ObsGuard obs_guard;
    struct Case
    {
        const char *spec;
        bool valid;
        bool enabled;
        const char *path;
    };
    const Case cases[] = {
        {nullptr, true, false, ""},
        {"", true, false, ""},
        {"off", true, false, ""},
        {"on", true, true, ""},
        {"json:t.json", true, true, "t.json"},
        {"json:", false, false, ""},
        {"bogus", false, false, ""},
        {"ON", false, false, ""},
        {"json", false, false, ""},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.spec ? c.spec : "(null)");
        obs::SinkConfig parsed;
        ASSERT_EQ(obs::parseSinkSpec(c.spec, &parsed), c.valid);
        if (c.valid) {
            EXPECT_EQ(parsed.enabled, c.enabled);
            EXPECT_EQ(parsed.json_path, c.path);
        }
        configureBoth(false, false);
        EXPECT_EQ(telemetry::configureFromSpec(c.spec), c.valid);
        EXPECT_EQ(trace::configureFromSpec(c.spec), c.valid);
        EXPECT_EQ(telemetry::enabled(), c.valid && c.enabled);
        EXPECT_EQ(trace::enabled(), c.valid && c.enabled);
    }
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Obs, ExporterNeverPublishesAStaleDocument)
{
    const std::string path = "test_obs_export.json";
    std::remove(path.c_str());
    obs::Exporter exporter;
    const obs::Export older = exporter.prepare(path, "older");
    const obs::Export newer = exporter.prepare(path, "newer");
    EXPECT_GT(newer.stamp, older.stamp);

    ASSERT_TRUE(exporter.publish(newer));
    EXPECT_EQ(readAll(path), "newer");
    // The older render lost the race: dropped, not written over.
    EXPECT_TRUE(exporter.publish(older));
    EXPECT_EQ(readAll(path), "newer");
    // Nothing to write is success.
    EXPECT_TRUE(exporter.publish(obs::Export{}));
    std::remove(path.c_str());
}

TEST(Obs, ScopesRaceFlushesAndReconfiguresSafely)
{
    // Writers keep recording on their own threads while the main
    // thread reconfigures tracing, closes steps and both outputs flush
    // concurrently: every published file stays a complete document.
    // Meaningful under the thread sanitizer (CI's tsan leg).
    ObsGuard obs_guard;
    const std::string tpath = "test_obs_race_telemetry.json";
    const std::string spath = "test_obs_race_trace.json";
    ASSERT_TRUE(telemetry::configureFromSpec(("json:" + tpath).c_str()));
    ASSERT_TRUE(trace::configureFromSpec(("json:" + spath).c_str()));

    constexpr int kWriters = 3;
    std::atomic<bool> stop{false};
    // Writers that have closed at least one scope. The loop below waits
    // for all of them, so the final trace holds an "obs_race" span even
    // when a loaded host starts the writers late.
    std::atomic<int> recorded{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w)
        threads.emplace_back([&stop, &recorded, w] {
            bool first = true;
            while (!stop.load(std::memory_order_relaxed)) {
                {
                    obs::Scope scope({telemetry::Timer::SchemeWait,
                                      telemetry::Seconds::SchemeWorker},
                                     trace::Category::Scheme, "obs_race",
                                     "w", w);
                }
                if (first) {
                    first = false;
                    recorded.fetch_add(1, std::memory_order_release);
                }
            }
        });
    threads.emplace_back([&stop] {
        while (!stop.load(std::memory_order_relaxed)) {
            EXPECT_TRUE(telemetry::flush());
            EXPECT_TRUE(trace::flush());
        }
    });
    while (recorded.load(std::memory_order_acquire) < kWriters)
        std::this_thread::yield();
    for (int i = 0; i < 40; ++i) {
        telemetry::stepBoundary(i);
        trace::Config sc;
        sc.enabled = true;
        sc.json_path = i % 2 == 0 ? spath : std::string();
        trace::configure(sc);
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : threads)
        t.join();

    ASSERT_TRUE(telemetry::flush());
    ASSERT_TRUE(trace::configureFromSpec(("json:" + spath).c_str()));
    ASSERT_TRUE(trace::flush());
    const std::string doc = readAll(tpath);
    EXPECT_NE(doc.find("\"schema\": \"snip-telemetry-v1\""),
              std::string::npos);
    EXPECT_EQ(doc.back(), '\n');
    EXPECT_NE(readAll(spath).find("\"obs_race\""), std::string::npos);
    std::remove(tpath.c_str());
    std::remove(spath.c_str());
}

TEST(Obs, ExportFaultFailsTraceFlushToo)
{
    ObsGuard obs_guard;
    const std::string path = "test_obs_trace_fault.json";
    std::remove(path.c_str());
    ASSERT_TRUE(trace::configureFromSpec(("json:" + path).c_str()));
    {
        obs::Scope span(trace::Category::Train, "obs_fault_probe");
    }

    ASSERT_TRUE(fault::configureFromSpec("telemetry.export:1"));
    EXPECT_FALSE(trace::flush());
    EXPECT_FALSE(std::ifstream(path).good());
    fault::reset();
    EXPECT_TRUE(trace::flush());
    EXPECT_NE(readAll(path).find("obs_fault_probe"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace snip
