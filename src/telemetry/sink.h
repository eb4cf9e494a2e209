/**
 * @file
 * Plumbing shared by the two observability outputs — the telemetry
 * registry (telemetry.h) and the span tracer (trace.h) — and by the
 * one instrumentation primitive that feeds both (obs.h):
 *
 *  - One recording-state word holds both outputs' on/off bits, so an
 *    instrumentation site asks "is anything recording?" with a single
 *    relaxed load. An output whose knob has not been read yet is
 *    *pending*; its first query resolves it from the environment.
 *  - Both knobs share one sink grammar, parsed here:
 *
 *      SNIP_TELEMETRY / SNIP_TRACE = off | on | json:<path>
 *
 *  - Every timer and span is measured on one monotonic clock with a
 *    process-wide epoch (nowNs()), so telemetry seconds and span
 *    durations of the same interval are the same number.
 *  - Both JSON exports go through one channel (Exporter): atomic tmp +
 *    rename, serialized across flushers, stale documents dropped, and
 *    one exit hook that flushes whatever is configured with a path.
 */
#ifndef SNIP_TELEMETRY_SINK_H
#define SNIP_TELEMETRY_SINK_H

#include <atomic>
#include <cstdint>
#include <string>

#include "util/thread_annotations.h"

namespace snip {
namespace obs {

/** Observability outputs, as bits of the recording state. */
constexpr int kTelemetry = 1;
constexpr int kTrace = 2;

namespace detail {

/** Bits 0-1: outputs recording. The same bits shifted left by
 *  kPendingShift: outputs whose knob is still unread. */
constexpr int kPendingShift = 2;

extern std::atomic<int> g_state;

/** Slow path: resolve every pending output from its environment knob.
 *  Returns the recording bits afterwards. */
int resolvePending();

/** True while @p output has been neither resolved nor configured. */
inline bool
pending(int output)
{
    return (g_state.load(std::memory_order_acquire) &
            (output << kPendingShift)) != 0;
}

/** True when @p output is recording, without resolving a pending
 *  knob (export paths: an output never used has nothing to write). */
inline bool
active(int output)
{
    return (g_state.load(std::memory_order_acquire) & output) != 0;
}

} // namespace detail

/** The subset of @p outputs that is recording now. With every output
 *  off this is one relaxed load and one predicted branch. */
inline int
recording(int outputs)
{
    const int s = detail::g_state.load(std::memory_order_relaxed);
    if ((s & (outputs | outputs << detail::kPendingShift)) == 0)
        return 0;
    if ((s & (outputs << detail::kPendingShift)) != 0)
        return detail::resolvePending() & outputs;
    return s & outputs;
}

/** Monotonic nanoseconds since the process's observability epoch
 *  (pinned when an output first turns on). Every telemetry interval
 *  and every span timestamp is read from this clock, so spans from
 *  different threads line up on one timeline. */
int64_t nowNs();

/** Where an output goes. Empty json_path = keep it in memory only. */
struct SinkConfig
{
    bool enabled = false;
    std::string json_path;
};

/** Parse "off" | "on" | "json:<path>" (null or empty = off). Returns
 *  false, leaving @p out untouched, on a malformed spec. */
bool parseSinkSpec(const char *spec, SinkConfig *out);

namespace detail {

/** The environment's spec for @p output (SNIP_TELEMETRY or
 *  SNIP_TRACE) parsed into @p out; a malformed spec warns and leaves
 *  the output off. */
void envSinkConfig(int output, SinkConfig *out);

/** Common tail of both outputs' configure(), called under the owner's
 *  registry lock: arm the exit flush when the sink has a path, then
 *  publish the output's recording bit. */
void applySink(int output, const SinkConfig &config);

} // namespace detail

/** One rendered document awaiting publication (path empty = none). */
struct Export
{
    std::string path;
    std::string json;
    uint64_t stamp = 0;
};

/**
 * One output's JSON export channel. The owner renders its document
 * under its own registry lock and stamps it there with prepare(), so
 * stamps follow render order; it publishes after releasing that lock.
 * File I/O therefore never holds a registry lock (the write seam
 * re-enters telemetry through the `telemetry.export` fault point, and a
 * slow disk must not stall every thread's first event). Publishes are
 * serialized — concurrent flushers share a pid-derived staging file —
 * and a document older than the last one published is dropped instead
 * of overwriting newer data.
 */
class Exporter
{
  public:
    /** Stamp @p json for @p path. Call under the owner's lock. */
    Export prepare(const std::string &path, std::string json);

    /** Write @p doc atomically (tmp + rename, readers-only
     *  durability: a lost export is re-rendered at the next flush).
     *  True when there was nothing to write or a newer document had
     *  already landed. Call without the owner's lock. */
    bool publish(const Export &doc) SNIP_EXCLUDES(mu_);

  private:
    std::atomic<uint64_t> stamps_{0};
    util::Mutex mu_;
    uint64_t published_ SNIP_GUARDED_BY(mu_) = 0;
};

/** Append @p s to @p out with JSON string escaping. */
void appendJsonEscaped(std::string &out, const char *s);

} // namespace obs
} // namespace snip

#endif // SNIP_TELEMETRY_SINK_H
