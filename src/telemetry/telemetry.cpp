#include "telemetry/telemetry.h"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

#include <unistd.h>

#include "runtime/thread_pool.h"
#include "simd/dispatch.h"
#include "util/thread_annotations.h"

namespace snip {
namespace telemetry {

namespace detail {

thread_local Shard *t_shard = nullptr;

Shard::Shard()
{
    for (auto &c : counters)
        c.store(0, std::memory_order_relaxed);
    for (auto &s : seconds)
        s.store(0.0, std::memory_order_relaxed);
    for (auto &g : max_gauges)
        g.store(0, std::memory_order_relaxed);
    for (auto &g : last_gauges)
        g.store(0, std::memory_order_relaxed);
    for (auto &t : timers) {
        t.count.store(0, std::memory_order_relaxed);
        t.sum_seconds.store(0.0, std::memory_order_relaxed);
        for (auto &b : t.buckets)
            b.store(0, std::memory_order_relaxed);
    }
}

} // namespace detail

namespace {

using detail::Shard;

/** Registry state behind every slow path (shard creation, folds,
 *  export). Hot-path reads never take this lock. */
struct Registry
{
    /** Never held across file I/O: a flusher renders under mu,
     *  releases it, then publishes through the exporter. */
    util::Mutex mu;
    /** All shards ever created. Never freed: a dead thread's cells
     *  stay part of the cumulative totals (and thread_local cleanup
     *  order stays irrelevant). Intentionally leaked, like the global
     *  thread pool. The vector is guarded; the shard CELLS are not —
     *  they are owner-written atomics the folder reads relaxed. */
    std::vector<Shard *> shards SNIP_GUARDED_BY(mu);

    Config config SNIP_GUARDED_BY(mu);

    /** Baseline of the previous boundary (deltas are taken against
     *  it) and the boundary wall clock. */
    Snapshot prev SNIP_GUARDED_BY(mu);
    std::chrono::steady_clock::time_point prev_time
        SNIP_GUARDED_BY(mu);
    bool have_prev_time SNIP_GUARDED_BY(mu) = false;

    /** Rendered per-step JSON objects, joined at flush(). */
    std::vector<std::string> series SNIP_GUARDED_BY(mu);
    int boundaries_since_flush SNIP_GUARDED_BY(mu) = 0;

    obs::Exporter exporter;
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked; see shards comment
    return *r;
}

Snapshot
foldLocked(Registry &reg) SNIP_REQUIRES(reg.mu)
{
    Snapshot out;
    for (Shard *shard : reg.shards) {
        for (int i = 0; i < kNumCounters; ++i)
            out.counters[i] +=
                shard->counters[i].load(std::memory_order_relaxed);
        for (int i = 0; i < kNumSeconds; ++i)
            out.seconds[i] +=
                shard->seconds[i].load(std::memory_order_relaxed);
        for (int i = 0; i < kNumMaxGauges; ++i) {
            const int64_t v =
                shard->max_gauges[i].load(std::memory_order_relaxed);
            if (v > out.max_gauges[i])
                out.max_gauges[i] = v;
        }
        for (int i = 0; i < kNumLastGauges; ++i)
            out.last_gauges[i] +=
                shard->last_gauges[i].load(std::memory_order_relaxed);
        for (int i = 0; i < kNumTimers; ++i) {
            Snapshot::TimerStat &t = out.timers[i];
            const Shard::TimerCell &c = shard->timers[i];
            t.count += c.count.load(std::memory_order_relaxed);
            t.sum_seconds +=
                c.sum_seconds.load(std::memory_order_relaxed);
            for (int b = 0; b < kTimerBuckets; ++b)
                t.buckets[b] +=
                    c.buckets[b].load(std::memory_order_relaxed);
        }
    }
    return out;
}

// ------------------------------------------------------ JSON helpers

void
appendInt(std::string &out, const char *key, int64_t v, bool first)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRId64,
                  first ? "" : ", ", key, v);
    out += buf;
}

void
appendDouble(std::string &out, const char *key, double v, bool first)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9g", first ? "" : ", ",
                  key, v);
    out += buf;
}

int64_t
counterDelta(const Snapshot &now, const Snapshot &prev, Counter c)
{
    return now.counter(c) - prev.counter(c);
}

double
secondsDelta(const Snapshot &now, const Snapshot &prev, Seconds s)
{
    return now.secondsOf(s) - prev.secondsOf(s);
}

int64_t
timerCountDelta(const Snapshot &now, const Snapshot &prev, Timer t)
{
    return now.timer(t).count - prev.timer(t).count;
}

/** One per-step record: subsystem-grouped deltas + derived rates. */
std::string
renderStepRecord(int64_t step, double wall_seconds, const Snapshot &now,
                 const Snapshot &prev, int pool_threads)
{
    std::string r = "{";
    appendInt(r, "step", step, true);
    appendDouble(r, "wall_s", wall_seconds, false);

    const double gemm_s = now.timer(Timer::Gemm).sum_seconds -
                          prev.timer(Timer::Gemm).sum_seconds;
    const int64_t flops = counterDelta(now, prev, Counter::GemmFlops);
    r += ", \"gemm\": {";
    appendInt(r, "calls", timerCountDelta(now, prev, Timer::Gemm), true);
    appendInt(r, "packed_calls",
              counterDelta(now, prev, Counter::GemmPackedCalls), false);
    appendInt(r, "batched_items",
              counterDelta(now, prev, Counter::GemmBatchedItems), false);
    appendInt(r, "flops", flops, false);
    appendDouble(r, "seconds", gemm_s, false);
    appendDouble(r, "gflops",
                 gemm_s > 0.0 ? static_cast<double>(flops) / gemm_s / 1e9
                              : 0.0,
                 false);
    r += "}";

    r += ", \"pack_cache\": {";
    appendInt(r, "hits", counterDelta(now, prev, Counter::PackCacheHits),
              true);
    appendInt(r, "rebuilds",
              counterDelta(now, prev, Counter::PackCacheRebuilds), false);
    r += "}";

    r += ", \"arena\": {";
    appendInt(r, "high_water_bytes",
              now.maxGauge(MaxGauge::ArenaHighWaterBytes), true);
    appendInt(r, "reserved_bytes",
              now.lastGauge(LastGauge::ArenaReservedBytes), false);
    r += "}";

    const double busy = secondsDelta(now, prev, Seconds::PoolBusy);
    const double wall = secondsDelta(now, prev, Seconds::PoolWall);
    r += ", \"pool\": {";
    appendInt(r, "jobs", timerCountDelta(now, prev, Timer::PoolJob),
              true);
    appendInt(r, "chunks", counterDelta(now, prev, Counter::PoolChunks),
              false);
    appendDouble(r, "busy_s", busy, false);
    appendDouble(r, "wall_s", wall, false);
    appendInt(r, "threads", pool_threads, false);
    appendDouble(r, "utilization",
                 wall > 0.0 && pool_threads > 0
                     ? busy / (wall * pool_threads)
                     : 0.0,
                 false);
    r += "}";

    r += ", \"attn\": {";
    appendInt(r, "fwd_calls", timerCountDelta(now, prev, Timer::AttnFwd),
              true);
    appendInt(r, "bwd_calls", timerCountDelta(now, prev, Timer::AttnBwd),
              false);
    appendDouble(r, "fwd_s",
                 now.timer(Timer::AttnFwd).sum_seconds -
                     prev.timer(Timer::AttnFwd).sum_seconds,
                 false);
    appendDouble(r, "bwd_s",
                 now.timer(Timer::AttnBwd).sum_seconds -
                     prev.timer(Timer::AttnBwd).sum_seconds,
                 false);
    r += "}";

    r += ", \"scheme\": {";
    appendInt(r, "updates",
              counterDelta(now, prev, Counter::SchemeUpdates), true);
    appendInt(r, "publishes",
              counterDelta(now, prev, Counter::SchemePublishes), false);
    appendDouble(r, "work_s",
                 secondsDelta(now, prev, Seconds::SchemeWork), false);
    appendDouble(r, "hidden_s",
                 secondsDelta(now, prev, Seconds::SchemeHidden), false);
    appendDouble(r, "exposed_s",
                 secondsDelta(now, prev, Seconds::SchemeExposed), false);
    appendDouble(r, "worker_busy_s",
                 secondsDelta(now, prev, Seconds::SchemeWorker), false);
    appendInt(r, "solve_cached",
              counterDelta(now, prev, Counter::SchemeSolveCached), false);
    appendInt(r, "skipped",
              counterDelta(now, prev, Counter::SchemeUpdateSkips), false);
    appendDouble(r, "handoff_wait_s",
                 now.timer(Timer::SchemeWait).sum_seconds -
                     prev.timer(Timer::SchemeWait).sum_seconds,
                 false);
    r += "}";

    r += ", \"serve\": {";
    appendInt(r, "requests",
              counterDelta(now, prev, Counter::ServeRequests), true);
    appendInt(r, "prefill_tokens",
              counterDelta(now, prev, Counter::ServePrefillTokens),
              false);
    appendInt(r, "decode_tokens",
              counterDelta(now, prev, Counter::ServeDecodeTokens),
              false);
    appendInt(r, "decode_steps",
              counterDelta(now, prev, Counter::ServeDecodeSteps), false);
    appendDouble(r, "prefill_s",
                 secondsDelta(now, prev, Seconds::ServePrefill), false);
    appendDouble(r, "decode_s",
                 secondsDelta(now, prev, Seconds::ServeDecode), false);
    appendInt(r, "kv_page_allocs",
              counterDelta(now, prev, Counter::KvPageAllocs), false);
    appendInt(r, "kv_page_releases",
              counterDelta(now, prev, Counter::KvPageReleases), false);
    appendInt(r, "kv_pages_in_use",
              now.lastGauge(LastGauge::KvPagesInUse), false);
    appendInt(r, "kv_pages_peak", now.maxGauge(MaxGauge::KvPagesPeak),
              false);
    appendInt(r, "rejected",
              counterDelta(now, prev, Counter::ServeRejected), false);
    appendInt(r, "preempted",
              counterDelta(now, prev, Counter::ServePreempted), false);
    appendInt(r, "expired",
              counterDelta(now, prev, Counter::ServeExpired), false);
    appendInt(r, "active_seqs",
              now.lastGauge(LastGauge::ServeActiveSeqs), false);
    r += "}";

    r += ", \"faults\": {";
    appendInt(r, "injected",
              counterDelta(now, prev, Counter::FaultsInjected), true);
    r += "}";

    const int64_t hits = counterDelta(now, prev, Counter::SolveCacheHits);
    const int64_t misses =
        counterDelta(now, prev, Counter::SolveCacheMisses);
    r += ", \"solve_cache\": {";
    appendInt(r, "hits", hits, true);
    appendInt(r, "misses", misses, false);
    appendInt(r, "evictions",
              counterDelta(now, prev, Counter::SolveCacheEvicts), false);
    appendDouble(r, "hit_rate",
                 hits + misses > 0
                     ? static_cast<double>(hits) /
                           static_cast<double>(hits + misses)
                     : 0.0,
                 false);
    r += "}}";
    return r;
}

const char *const kTimerNames[kNumTimers] = {
    "gemm", "attn_fwd", "attn_bwd", "pool_job", "scheme_wait"};

/** Cumulative timer histograms: the per-step records stay lean, the
 *  full log2(ns) distributions land once per document. */
std::string
renderTotals(const Snapshot &snap)
{
    std::string r = "{\"timers\": {";
    for (int i = 0; i < kNumTimers; ++i) {
        const Snapshot::TimerStat &t = snap.timers[i];
        if (i > 0)
            r += ", ";
        r += "\"";
        r += kTimerNames[i];
        r += "\": {";
        appendInt(r, "count", t.count, true);
        appendDouble(r, "sum_s", t.sum_seconds, false);
        r += ", \"log2ns_buckets\": [";
        for (int b = 0; b < kTimerBuckets; ++b) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%s%" PRId64,
                          b > 0 ? ", " : "", t.buckets[b]);
            r += buf;
        }
        r += "]}";
    }
    r += "}}";
    return r;
}

std::string
renderDocumentLocked(Registry &reg) SNIP_REQUIRES(reg.mu)
{
    std::string doc = "{\"schema\": \"snip-telemetry-v1\", \"meta\": {";
    appendInt(doc, "pid", static_cast<int64_t>(::getpid()), true);
    appendInt(doc, "threads", runtime::defaultThreadCount(), false);
    doc += ", \"simd\": \"";
    obs::appendJsonEscaped(doc, simd::activeBackendName());
    doc += "\"}, \"series\": [";
    for (size_t i = 0; i < reg.series.size(); ++i) {
        if (i > 0)
            doc += ", ";
        doc += reg.series[i];
    }
    doc += "], \"totals\": ";
    doc += renderTotals(foldLocked(reg));
    doc += "}\n";
    return doc;
}

/** Render the export under the lock; the caller publishes it through
 *  reg.exporter after releasing reg.mu. */
obs::Export
prepareFlushLocked(Registry &reg) SNIP_REQUIRES(reg.mu)
{
    reg.boundaries_since_flush = 0;
    if (reg.config.json_path.empty())
        return obs::Export{};
    return reg.exporter.prepare(reg.config.json_path,
                                renderDocumentLocked(reg));
}

void
applyConfigLocked(Registry &reg, const Config &config)
    SNIP_REQUIRES(reg.mu)
{
    reg.config = config;
    reg.series.clear();
    reg.boundaries_since_flush = 0;
    reg.prev = foldLocked(reg);
    reg.prev_time = std::chrono::steady_clock::now();
    reg.have_prev_time = true;
    obs::detail::applySink(obs::kTelemetry, config);
}

} // namespace

namespace detail {

void
resolveFromEnv()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    if (!obs::detail::pending(obs::kTelemetry))
        return; // raced with another resolver/configure()
    Config config;
    obs::detail::envSinkConfig(obs::kTelemetry, &config);
    applyConfigLocked(reg, config);
}

Shard &
shardSlow()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    if (t_shard == nullptr) {
        t_shard = new Shard; // leaked; see Registry::shards
        reg.shards.push_back(t_shard);
    }
    return *t_shard;
}

} // namespace detail

Snapshot
snapshot()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    return foldLocked(reg);
}

void
stepBoundary(int64_t step)
{
    if (!enabled())
        return;
    // Resolve outside the registry lock: both may take their own.
    const int pool_threads = runtime::globalThreadPool().numThreads();
    Registry &reg = registry();
    obs::Export doc;
    {
        util::MutexLock lk(reg.mu);
        const auto now_time = std::chrono::steady_clock::now();
        double wall_seconds = 0.0;
        if (reg.have_prev_time)
            wall_seconds =
                std::chrono::duration<double>(now_time - reg.prev_time)
                    .count();
        const Snapshot now = foldLocked(reg);
        reg.series.push_back(
            renderStepRecord(step, wall_seconds, now, reg.prev,
                             pool_threads));
        reg.prev = now;
        reg.prev_time = now_time;
        reg.have_prev_time = true;
        if (reg.config.flush_every > 0 &&
            ++reg.boundaries_since_flush >= reg.config.flush_every)
            doc = prepareFlushLocked(reg);
    }
    (void)reg.exporter.publish(doc);
}

bool
flush()
{
    if (!obs::detail::active(obs::kTelemetry))
        return true;
    Registry &reg = registry();
    obs::Export doc;
    {
        util::MutexLock lk(reg.mu);
        doc = prepareFlushLocked(reg);
    }
    return reg.exporter.publish(doc);
}

int64_t
stepsRecorded()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    return static_cast<int64_t>(reg.series.size());
}

std::string
summary()
{
    const Snapshot s = snapshot();
    const double gemm_s = s.timer(Timer::Gemm).sum_seconds;
    const int64_t lookups = s.counter(Counter::SolveCacheHits) +
                            s.counter(Counter::SolveCacheMisses);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "gemm %lld calls %.2f GFLOP %s%.1f GFLOP/s; pack cache %lld/%lld "
        "hit; arena hw %lld B; pool %lld jobs; attn %lld+%lld; scheme "
        "%lld updates (%.0f%% hidden); solve cache %lld/%lld hit",
        static_cast<long long>(s.timer(Timer::Gemm).count),
        static_cast<double>(s.counter(Counter::GemmFlops)) / 1e9,
        gemm_s > 0.0 ? "@ " : "",
        gemm_s > 0.0
            ? static_cast<double>(s.counter(Counter::GemmFlops)) /
                  gemm_s / 1e9
            : 0.0,
        static_cast<long long>(s.counter(Counter::PackCacheHits)),
        static_cast<long long>(s.counter(Counter::PackCacheHits) +
                               s.counter(Counter::PackCacheRebuilds)),
        static_cast<long long>(s.maxGauge(MaxGauge::ArenaHighWaterBytes)),
        static_cast<long long>(s.timer(Timer::PoolJob).count),
        static_cast<long long>(s.timer(Timer::AttnFwd).count),
        static_cast<long long>(s.timer(Timer::AttnBwd).count),
        static_cast<long long>(s.counter(Counter::SchemeUpdates)),
        s.secondsOf(Seconds::SchemeWork) > 0.0
            ? 100.0 * s.secondsOf(Seconds::SchemeHidden) /
                  s.secondsOf(Seconds::SchemeWork)
            : 0.0,
        static_cast<long long>(s.counter(Counter::SolveCacheHits)),
        static_cast<long long>(lookups));
    return buf;
}

void
configure(const Config &config)
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    applyConfigLocked(reg, config);
}

bool
configureFromSpec(const char *spec)
{
    Config config;
    if (!obs::parseSinkSpec(spec, &config))
        return false;
    configure(config);
    return true;
}

} // namespace telemetry
} // namespace snip
