/**
 * @file
 * Structured span tracing: a lock-free per-thread flight recorder with
 * Chrome-trace-event/Perfetto JSON export.
 *
 * Where the telemetry registry (telemetry.h) answers "how much / how
 * fast on average", the tracer answers "what happened to THIS request"
 * and "where did THIS step's time go": every instrumented scope — a
 * trainStep phase, a scheme-worker solve, a coalesced decode iteration
 * — lands as one timestamped span, drained into a timeline you can
 * open in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
 *
 * Design (the PR 6 sharded-cell discipline applied to events):
 *
 *  - Each thread owns one fixed-capacity ring of span cells, created
 *    on its first span, registered once, never freed. The owner is the
 *    only writer and uses relaxed load+store pairs — no hot-path RMW,
 *    no lock, no allocation once the ring exists. Recording a span is
 *    two clock samples plus a handful of plain stores.
 *  - The ring is a flight recorder: when it wraps, the NEWEST spans
 *    win and the oldest are overwritten. Cells are seqlock-stamped
 *    (ticket written last on publish, re-checked by the reader), so a
 *    drain that races a writer skips torn cells instead of exporting
 *    garbage; export points (process exit, flush()) are normally
 *    quiescent anyway.
 *  - Span names and arg keys are static strings (string literals at
 *    the instrumentation site) — recording never copies or hashes
 *    text.
 *  - Tracing observes, it never steers: no kernel branches on trace
 *    state, so SNIP_TRACE=off|on cannot change training numerics.
 *    Disabled, every hook is one relaxed flag load and a predicted
 *    branch.
 *  - Scoped sites use obs::Scope (obs.h): one clock pair feeds the
 *    span here and, for timed sites, the telemetry histogram.
 *
 * Enabling: the SNIP_TRACE environment variable (the sink grammar
 * shared with SNIP_TELEMETRY, sink.h) —
 *
 *   SNIP_TRACE=off          disabled (default when unset)
 *   SNIP_TRACE=on           record in memory (renderJson() on demand)
 *   SNIP_TRACE=json:<path>  record and write the Chrome trace JSON to
 *                           <path> at exit/flush() (atomically: tmp +
 *                           rename, like the telemetry export)
 *
 * or programmatically via configure() (tests, benches — e.g.
 * `serve_throughput --trace`).
 *
 * The document is the Chrome trace-event format:
 * {"traceEvents": [{"ph": "X", "pid": ..., "tid": ..., "ts": <us>,
 * "dur": <us>, "cat": ..., "name": ..., "args": {...}}, ...]} plus
 * thread-name metadata events. `tools/trace_report.py` summarizes one
 * (per-category time, slowest requests, decode-width histogram) and
 * structurally validates it in CI (--check).
 */
#ifndef SNIP_TELEMETRY_TRACE_H
#define SNIP_TELEMETRY_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

#include "telemetry/sink.h"

namespace snip {
namespace trace {

/** Span category; exported as the Chrome event "cat" field so
 *  Perfetto can color/filter by subsystem. */
enum class Category : int
{
    Train,  ///< trainStep phases (fwd, bwd, optim, scheme_apply) and
            ///< the SwiGLU pointwise passes inside fwd/bwd (swiglu)
    Scheme, ///< async update service: snapshot, solve, handoff_wait
    Pool,   ///< sampled parallelFor jobs
    Gemm,   ///< GEMM driver invocations
    Attn,   ///< attention fwd/bwd core invocations
    Serve,  ///< request lifecycle: queued, prefill, decode_step, ...
    kCount
};

constexpr int kNumCategories = static_cast<int>(Category::kCount);

/** Spans retained per thread before the flight recorder wraps and the
 *  oldest are overwritten (newest always win). */
constexpr int64_t kRingCapacity = 8192;

namespace detail {

/** One recorded span. Fields are atomics purely so a concurrent
 *  drain is defined behavior; the owning thread writes them with
 *  relaxed stores. `seq` is the publish ticket (seqlock stamp): it is
 *  zeroed before the fields are rewritten and re-stamped last, and the
 *  reader re-checks it after copying the fields. */
struct SpanCell
{
    std::atomic<uint64_t> seq{0};
    std::atomic<int64_t> ts_ns{0};
    std::atomic<int64_t> dur_ns{0};
    std::atomic<int> cat{0};
    std::atomic<const char *> name{nullptr};
    std::atomic<const char *> arg_key[2];
    std::atomic<int64_t> arg_val[2];

    SpanCell()
    {
        arg_key[0].store(nullptr, std::memory_order_relaxed);
        arg_key[1].store(nullptr, std::memory_order_relaxed);
        arg_val[0].store(0, std::memory_order_relaxed);
        arg_val[1].store(0, std::memory_order_relaxed);
    }
};

/** One thread's flight recorder. Created on the thread's first span,
 *  registered once, intentionally leaked (a dead thread's spans stay
 *  exportable, and thread_local destruction order stays irrelevant). */
struct Ring
{
    SpanCell cells[kRingCapacity];
    /** Publish ticket of the newest span (1-based; owner-only relaxed
     *  load+store increments, never an RMW). */
    std::atomic<uint64_t> head{0};
    /** Small stable thread id assigned at registration (1-based). */
    int tid = 0;
    /** Optional static display name (Perfetto thread_name metadata). */
    std::atomic<const char *> thread_name{nullptr};
};

/** Configure from SNIP_TRACE unless configure() got there first (the
 *  pending-output slow path of obs::recording()). */
void resolveFromEnv();
Ring &ringSlow();

extern thread_local Ring *t_ring;

inline Ring &
ring()
{
    Ring *r = t_ring;
    return r != nullptr ? *r : ringSlow();
}

} // namespace detail

/** True when tracing is recording (hot-path fast check). */
inline bool
enabled()
{
    return obs::recording(obs::kTrace) != 0;
}

/**
 * Record one complete span on the calling thread's ring. No-op when
 * disabled. @p ts_ns is on the obs::nowNs() clock. @p name and the
 * arg keys must be string literals (or otherwise outlive the process)
 * — the recorder stores the pointers. Zero heap allocations once this
 * thread's ring exists.
 */
inline void
record(Category cat, const char *name, int64_t ts_ns, int64_t dur_ns,
       const char *k0 = nullptr, int64_t v0 = 0,
       const char *k1 = nullptr, int64_t v1 = 0)
{
    if (!enabled())
        return;
    detail::Ring &r = detail::ring();
    const uint64_t ticket =
        r.head.load(std::memory_order_relaxed) + 1;
    detail::SpanCell &c =
        r.cells[(ticket - 1) % static_cast<uint64_t>(kRingCapacity)];
    // Seqlock publish: invalidate, write fields, stamp, bump head.
    c.seq.store(0, std::memory_order_release);
    c.ts_ns.store(ts_ns, std::memory_order_relaxed);
    c.dur_ns.store(dur_ns, std::memory_order_relaxed);
    c.cat.store(static_cast<int>(cat), std::memory_order_relaxed);
    c.name.store(name, std::memory_order_relaxed);
    c.arg_key[0].store(k0, std::memory_order_relaxed);
    c.arg_val[0].store(v0, std::memory_order_relaxed);
    c.arg_key[1].store(k1, std::memory_order_relaxed);
    c.arg_val[1].store(v1, std::memory_order_relaxed);
    c.seq.store(ticket, std::memory_order_release);
    r.head.store(ticket, std::memory_order_release);
}

/** Name the calling thread on the exported timeline (Perfetto
 *  thread_name metadata). @p name must be a static string. No-op when
 *  disabled. */
void setCurrentThreadName(const char *name);

/** Render the Chrome trace-event JSON document from every thread's
 *  ring (newest <= kRingCapacity spans per thread). Any thread; safe
 *  concurrently with writers (torn cells are skipped). */
std::string renderJson();

/** Write the document to the configured json path now (atomic tmp +
 *  rename). No-op without a path. Returns false on I/O error. */
bool flush();

/** Spans currently resident across all rings (post-wrap: at most
 *  kRingCapacity per thread). */
int64_t spansRecorded();

/** Programmatic configuration (tests, benches); overrides the
 *  environment. Rings are NOT cleared (spans already recorded stay
 *  exportable); the mode flag and sink path are replaced. An empty
 *  json_path records in memory only. */
using Config = obs::SinkConfig;

void configure(const Config &config);

/** Parse a SNIP_TRACE-style spec ("off" | "on" | "json:<path>") and
 *  configure() from it. Returns false (no change) on a malformed
 *  spec. */
bool configureFromSpec(const char *spec);

} // namespace trace
} // namespace snip

#endif // SNIP_TELEMETRY_TRACE_H
