/**
 * @file
 * Lightweight stats registry: counters, gauges and histogram-backed
 * timers with per-thread sharded accumulation, folded into a global
 * snapshot at step/bench boundaries and exported as a per-step JSON
 * time series.
 *
 * Design (the YTsaurus profiling_manager idiom adapted to the
 * ThreadPool determinism contract):
 *
 *  - Every metric is a fixed enum slot, so the hot path is an array
 *    index — no string hashing, no maps, no locks.
 *  - Each thread owns one Shard (created on first use, registered
 *    once, never freed). The owning thread updates cells with plain
 *    relaxed load+store pairs — never an atomic RMW, never a lock —
 *    so instrumented kernels pay a couple of L1 accesses per event.
 *    Cells are std::atomic only so the folding reader is race-free in
 *    the C++ memory model; on x86-64 the relaxed load/store compile to
 *    plain MOVs.
 *  - Cells accumulate *cumulatively* and are never reset. A fold
 *    (telemetry::stepBoundary / telemetry::snapshot) sums the shards
 *    and reports per-step deltas against the previous fold, so a
 *    thread that keeps writing concurrently (the async scheme worker)
 *    can never lose an update to a reset race — at worst its latest
 *    events land in the next step's delta.
 *  - Telemetry observes, it never steers: no kernel branches on a
 *    telemetry value, so enabling it cannot perturb the bit-exactness
 *    contract. With telemetry disabled every hot-path call is a single
 *    relaxed flag load and a predicted branch.
 *  - Timed sites use obs::Scope (obs.h): one clock pair feeds the
 *    Timer histogram here and, when tracing, the site's span.
 *
 * Enabling: the SNIP_TELEMETRY environment variable (the sink grammar
 * shared with SNIP_TRACE, sink.h) —
 *
 *   SNIP_TELEMETRY=off          disabled (default when unset)
 *   SNIP_TELEMETRY=on           collect in memory (snapshot()/summary())
 *   SNIP_TELEMETRY=json:<path>  collect and write the per-step JSON
 *                               time series to <path> (atomically:
 *                               tmp + rename, so a concurrent reader
 *                               always sees a complete document)
 *
 * or programmatically via configure() (tests, benches).
 *
 * The JSON document: {"schema": "snip-telemetry-v1", "meta": {...},
 * "series": [ {per-step record}, ... ]}. Each step record carries the
 * deltas for that step grouped by subsystem (gemm, pack_cache, arena,
 * pool, attn, scheme, serve, faults) plus derived rates (gemm.gflops,
 * pool.utilization). See README "Telemetry".
 */
#ifndef SNIP_TELEMETRY_TELEMETRY_H
#define SNIP_TELEMETRY_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <string>

#include "telemetry/sink.h"

namespace snip {
namespace telemetry {

/** Monotonic event counts (fold = sum across shards; exported as
 *  per-step deltas). Deterministic workloads produce thread-count-
 *  independent totals for all of these (tests/test_telemetry.cpp).
 *  Call counts of timed sites are their Timer's count, not a Counter. */
enum class Counter : int
{
    GemmPackedCalls,   ///< GEMM driver calls that ran the packed pipeline
    /** Retired: every GEMM packs, so this always reads 0. Kept only
     *  because the repository benchmark (perfbench/) still reports it
     *  as tensor.gemm_legacy_calls. */
    GemmLegacyCalls,
    GemmBatchedItems,  ///< items executed by strided-batch drivers
    GemmFlops,         ///< 2*m*n*k summed over all GEMM work
    PackCacheHits,     ///< PackedWeightCache: panel served as-is
    PackCacheRebuilds, ///< PackedWeightCache: panel (re)packed
    PoolChunks,        ///< chunks parallelFor invocations were cut into
    SchemeUpdates,     ///< scheme updates applied to the model
    SchemePublishes,   ///< results published by the update service
    SchemeUpdateSkips, ///< failed updates resolved by keeping the
                       ///< current scheme (skip-update semantics)
    ServeRequests,     ///< requests retired by the serving engine
    ServePrefillTokens,///< prompt tokens prefilled
    ServeDecodeTokens, ///< tokens produced by decode steps
    ServeDecodeSteps,  ///< coalesced decode iterations
    ServeRejected,     ///< requests rejected at admission
    ServePreempted,    ///< sequences cancelled to relieve the KV pool
    ServeExpired,      ///< requests cancelled past their deadline
    KvPageAllocs,      ///< KV-cache pages taken from the free list
    KvPageReleases,    ///< KV-cache pages returned on retirement
    FaultsInjected,    ///< injected faults fired (SNIP_FAULT)
    kCount
};

/** Wall-clock accumulators (fold = sum; exported as deltas). */
enum class Seconds : int
{
    PoolBusy,     ///< worker seconds inside parallelFor chunks
    PoolWall,     ///< submitter seconds inside parallelFor
    SchemeWork,   ///< Steps 4-5 worker wall (controller accounting)
    SchemeHidden, ///< ... portion overlapped with training
    SchemeExposed,///< ... portion the trainer waited for
    SchemeWorker, ///< update-service worker busy seconds
    ServePrefill, ///< engine seconds inside prefill forwards
    ServeDecode,  ///< engine seconds inside decode steps
    kCount
};

/** High-water marks (owner keeps a running max; fold = max across
 *  shards; exported as the cumulative value). */
enum class MaxGauge : int
{
    ArenaHighWaterBytes, ///< peak bytes live in any one arena episode
    KvPagesPeak,         ///< peak KV-cache pages in use
    kCount
};

/** Last-value gauges (owner overwrites; fold = sum across shards). */
enum class LastGauge : int
{
    ArenaReservedBytes, ///< slab bytes currently owned per arena
    // Serve gauges are owned by the single engine thread (LastGauge
    // folds by summing shards, so only one thread may write them).
    KvPagesInUse,       ///< KV-cache pages currently allocated
    ServeActiveSeqs,    ///< sequences in the engine's active batch
    kCount
};

/** Histogram-backed timers: count + total seconds + log2(ns) buckets
 *  (fold = sum; exported as deltas). The count is the site's call
 *  count: every invocation records exactly once. */
enum class Timer : int
{
    Gemm,        ///< one GEMM driver invocation (any path)
    AttnFwd,     ///< one attentionForwardCore invocation
    AttnBwd,     ///< one attentionBackwardCore invocation
    PoolJob,     ///< one parallelFor (incl. inline), submitter wall
    SchemeWait,  ///< one handoff: trainer blocked at apply boundary
    AttnDecode,  ///< one decode-step attention fan-out (kvAttend)
    SwiGlu,      ///< one SwiGLU pointwise pass (fwd or bwd)
    kCount
};

constexpr int kNumCounters = static_cast<int>(Counter::kCount);
constexpr int kNumSeconds = static_cast<int>(Seconds::kCount);
constexpr int kNumMaxGauges = static_cast<int>(MaxGauge::kCount);
constexpr int kNumLastGauges = static_cast<int>(LastGauge::kCount);
constexpr int kNumTimers = static_cast<int>(Timer::kCount);
/** Bucket i holds durations in [2^(i-1), 2^i) nanoseconds; the last
 *  bucket absorbs everything >= ~134 ms. */
constexpr int kTimerBuckets = 28;

namespace detail {

/** One thread's accumulation cells. Atomics exist purely so the
 *  folding reader is defined behavior; the owner is the only writer
 *  and uses relaxed load+store (a plain add on x86-64). */
struct alignas(64) Shard
{
    std::atomic<int64_t> counters[kNumCounters];
    std::atomic<double> seconds[kNumSeconds];
    std::atomic<int64_t> max_gauges[kNumMaxGauges];
    std::atomic<int64_t> last_gauges[kNumLastGauges];
    struct TimerCell
    {
        std::atomic<int64_t> count;
        std::atomic<double> sum_seconds;
        std::atomic<int64_t> buckets[kTimerBuckets];
    };
    TimerCell timers[kNumTimers];

    Shard();
};

/** Configure from SNIP_TELEMETRY unless configure() got there first
 *  (the pending-output slow path of obs::recording()). */
void resolveFromEnv();
Shard &shardSlow();

extern thread_local Shard *t_shard;

inline Shard &
shard()
{
    Shard *s = t_shard;
    return s != nullptr ? *s : shardSlow();
}

/** Owner-only add: relaxed load+store, never an RMW. */
inline void
add(std::atomic<int64_t> &cell, int64_t v)
{
    cell.store(cell.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
}

inline void
add(std::atomic<double> &cell, double v)
{
    cell.store(cell.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
}

} // namespace detail

/** True when telemetry is collecting (hot-path fast check). */
inline bool
enabled()
{
    return obs::recording(obs::kTelemetry) != 0;
}

// ------------------------------------------------------ hot-path API
// Every call is a no-op (one relaxed flag load) when disabled, and a
// couple of thread-local plain memory accesses when enabled. None of
// them can allocate once the calling thread's shard exists.

inline void
count(Counter c, int64_t v = 1)
{
    if (!enabled())
        return;
    detail::add(detail::shard().counters[static_cast<int>(c)], v);
}

inline void
addSeconds(Seconds s, double v)
{
    if (!enabled())
        return;
    detail::add(detail::shard().seconds[static_cast<int>(s)], v);
}

inline void
gaugeMax(MaxGauge g, int64_t v)
{
    if (!enabled())
        return;
    std::atomic<int64_t> &cell =
        detail::shard().max_gauges[static_cast<int>(g)];
    if (v > cell.load(std::memory_order_relaxed))
        cell.store(v, std::memory_order_relaxed);
}

inline void
gaugeSet(LastGauge g, int64_t v)
{
    if (!enabled())
        return;
    detail::shard().last_gauges[static_cast<int>(g)].store(
        v, std::memory_order_relaxed);
}

inline void
recordTimer(Timer t, double seconds)
{
    if (!enabled())
        return;
    detail::Shard::TimerCell &cell =
        detail::shard().timers[static_cast<int>(t)];
    detail::add(cell.count, 1);
    detail::add(cell.sum_seconds, seconds);
    int64_t ns = static_cast<int64_t>(seconds * 1e9);
    int bucket = 0;
    while (ns > 0 && bucket < kTimerBuckets - 1) {
        ns >>= 1;
        ++bucket;
    }
    detail::add(cell.buckets[bucket], 1);
}

// ---------------------------------------------------- fold/export API

/** Cumulative totals across all shards at one fold point. */
struct Snapshot
{
    int64_t counters[kNumCounters] = {};
    double seconds[kNumSeconds] = {};
    int64_t max_gauges[kNumMaxGauges] = {};
    int64_t last_gauges[kNumLastGauges] = {};
    struct TimerStat
    {
        int64_t count = 0;
        double sum_seconds = 0.0;
        int64_t buckets[kTimerBuckets] = {};
    };
    TimerStat timers[kNumTimers];

    int64_t counter(Counter c) const
    {
        return counters[static_cast<int>(c)];
    }
    double secondsOf(Seconds s) const
    {
        return seconds[static_cast<int>(s)];
    }
    int64_t maxGauge(MaxGauge g) const
    {
        return max_gauges[static_cast<int>(g)];
    }
    int64_t lastGauge(LastGauge g) const
    {
        return last_gauges[static_cast<int>(g)];
    }
    const TimerStat &timer(Timer t) const
    {
        return timers[static_cast<int>(t)];
    }
};

/** Fold every shard into cumulative totals (cheap; any thread; safe
 *  concurrently with writers, which at worst land in the next fold). */
Snapshot snapshot();

/**
 * Close one step of the time series: fold, diff against the previous
 * boundary, append a step record tagged @p step, and periodically
 * rewrite the configured JSON file. Call at a point where no parallel
 * kernels are in flight (the trainer calls it once per trainStep).
 * No-op when disabled.
 */
void stepBoundary(int64_t step);

/** Rewrite the configured JSON file now (atomic tmp + rename). No-op
 *  without a path. Returns false on I/O error. */
bool flush();

/** Steps recorded since configure/enable (size of the series). */
int64_t stepsRecorded();

/** One-line human summary of the cumulative totals (fig12, logs). */
std::string summary();

/** Programmatic configuration (tests/benches); overrides the
 *  environment, resets the series, the baseline fold and the step
 *  clock — cumulative shard cells are NOT cleared (they are
 *  monotonic), so deltas restart cleanly from here. An empty
 *  json_path collects in memory only. */
struct Config : obs::SinkConfig
{
    /** Rewrite the JSON file every this many boundaries (and at
     *  process exit / flush()). */
    int flush_every = 32;
};

void configure(const Config &config);

/** Parse a SNIP_TELEMETRY-style spec ("off" | "on" | "json:<path>")
 *  and configure() from it. Returns false (no change) on a malformed
 *  spec. */
bool configureFromSpec(const char *spec);

} // namespace telemetry
} // namespace snip

#endif // SNIP_TELEMETRY_TELEMETRY_H
