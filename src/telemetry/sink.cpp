#include "telemetry/sink.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "runtime/env_config.h"
#include "runtime/fault_injection.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "util/file_io.h"
#include "util/logging.h"

namespace snip {
namespace obs {

namespace {

/** Publish @p output as recording (or not) and no longer pending. */
void
setRecording(int output, bool on)
{
    // Pin the shared epoch before any recorder can observe the bit, so
    // the first interval never pays the magic-static guard.
    if (on)
        (void)nowNs();
    std::atomic<int> &state = detail::g_state;
    int s = state.load(std::memory_order_relaxed);
    int next;
    do {
        next = (s & ~(output | output << detail::kPendingShift)) |
               (on ? output : 0);
        // Release pairs with the acquire loads of pending()/active():
        // whoever sees the new bits also sees the owner's config.
    } while (!state.compare_exchange_weak(s, next,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
}

} // namespace

namespace detail {

std::atomic<int> g_state{(kTelemetry | kTrace) << kPendingShift};

int
resolvePending()
{
    // Each output resolves under its own registry lock and re-checks
    // pending there, so a racing resolver or configure() wins cleanly.
    if (pending(kTelemetry))
        telemetry::detail::resolveFromEnv();
    if (pending(kTrace))
        trace::detail::resolveFromEnv();
    return g_state.load(std::memory_order_acquire) & (kTelemetry | kTrace);
}

void
envSinkConfig(int output, SinkConfig *out)
{
    const runtime::EnvConfig &env = runtime::envConfig();
    const bool telem = output == kTelemetry;
    const char *spec =
        (telem ? env.telemetry() : env.trace()).cstrOrNull();
    if (!parseSinkSpec(spec, out)) {
        warn("unknown ", telem ? "SNIP_TELEMETRY" : "SNIP_TRACE",
             " value '", spec, "' (expected off|on|json:<path>); ",
             telem ? "telemetry" : "tracing", " disabled");
        *out = SinkConfig{};
    }
}

void
applySink(int output, const SinkConfig &config)
{
    if (config.enabled && !config.json_path.empty()) {
        // Benches and tests rarely flush explicitly; make sure a
        // normally-exiting process always leaves complete documents.
        // One hook serves both outputs (each flush is a no-op without
        // a path).
        static const bool hooked = [] {
            std::atexit([] {
                (void)telemetry::flush();
                (void)trace::flush();
            });
            return true;
        }();
        (void)hooked;
    }
    setRecording(output, config.enabled);
}

} // namespace detail

int64_t
nowNs()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

bool
parseSinkSpec(const char *spec, SinkConfig *out)
{
    if (spec == nullptr || *spec == '\0' ||
        std::strcmp(spec, "off") == 0) {
        out->enabled = false;
        out->json_path.clear();
        return true;
    }
    if (std::strcmp(spec, "on") == 0) {
        out->enabled = true;
        out->json_path.clear();
        return true;
    }
    if (std::strncmp(spec, "json:", 5) == 0 && spec[5] != '\0') {
        out->enabled = true;
        out->json_path = spec + 5;
        return true;
    }
    return false;
}

Export
Exporter::prepare(const std::string &path, std::string json)
{
    Export doc;
    doc.path = path;
    doc.json = std::move(json);
    // Relaxed: the owner's lock already orders prepares; the counter
    // only has to be unique and monotonic under it.
    doc.stamp = stamps_.fetch_add(1, std::memory_order_relaxed) + 1;
    return doc;
}

bool
Exporter::publish(const Export &doc)
{
    if (doc.path.empty())
        return true;
    util::MutexLock lk(mu_);
    if (doc.stamp <= published_)
        return true; // a newer document already landed
    if (SNIP_FAULT_POINT("telemetry.export"))
        return false;
    if (!fsio::writeFileAtomic(doc.path, doc.json, /*durable=*/false))
        return false;
    published_ = doc.stamp;
    return true;
}

void
appendJsonEscaped(std::string &out, const char *s)
{
    for (; *s != '\0'; ++s) {
        const char ch = *s;
        switch (ch) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                    out += buf;
                } else {
                    out += ch;
                }
        }
    }
}

} // namespace obs
} // namespace snip
