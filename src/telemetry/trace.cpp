#include "telemetry/trace.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include <unistd.h>

#include "util/thread_annotations.h"

namespace snip {
namespace trace {

namespace detail {

thread_local Ring *t_ring = nullptr;

} // namespace detail

namespace {

using detail::Ring;
using detail::SpanCell;

const char *const kCategoryNames[kNumCategories] = {
    "train", "scheme", "pool", "gemm", "attn", "serve"};

/** Registry state behind every slow path (ring creation, export).
 *  Hot-path recording never takes this lock. */
struct Registry
{
    /** Never held across file I/O: flush() renders under mu,
     *  releases it, then publishes through the exporter. */
    util::Mutex mu;
    /** All rings ever created, in registration order (the order
     *  assigns tids). Never freed; see Ring. The vector is guarded;
     *  ring CELLS are owner-written under the seqlock protocol the
     *  exporter reads with acquire loads. */
    std::vector<Ring *> rings SNIP_GUARDED_BY(mu);

    Config config SNIP_GUARDED_BY(mu);

    obs::Exporter exporter;
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked; see rings comment
    return *r;
}

/** A consistent copy of one cell, or failure when the read raced the
 *  owner mid-rewrite (seqlock double-check). */
struct SpanCopy
{
    int64_t ts_ns = 0;
    int64_t dur_ns = 0;
    int cat = 0;
    const char *name = nullptr;
    const char *arg_key[2] = {nullptr, nullptr};
    int64_t arg_val[2] = {0, 0};
};

bool
readCell(const SpanCell &c, uint64_t ticket, SpanCopy *out)
{
    if (c.seq.load(std::memory_order_acquire) != ticket)
        return false;
    out->ts_ns = c.ts_ns.load(std::memory_order_relaxed);
    out->dur_ns = c.dur_ns.load(std::memory_order_relaxed);
    out->cat = c.cat.load(std::memory_order_relaxed);
    out->name = c.name.load(std::memory_order_relaxed);
    out->arg_key[0] = c.arg_key[0].load(std::memory_order_relaxed);
    out->arg_val[0] = c.arg_val[0].load(std::memory_order_relaxed);
    out->arg_key[1] = c.arg_key[1].load(std::memory_order_relaxed);
    out->arg_val[1] = c.arg_val[1].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    return c.seq.load(std::memory_order_relaxed) == ticket &&
           out->name != nullptr;
}

void
appendEvent(std::string &out, int64_t pid, int tid, const SpanCopy &s,
            bool first)
{
    if (!first)
        out += ",\n";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    {\"ph\": \"X\", \"pid\": %lld, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<long long>(pid), tid,
                  static_cast<double>(s.ts_ns) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3);
    out += buf;
    out += ", \"cat\": \"";
    out += (s.cat >= 0 && s.cat < kNumCategories)
               ? kCategoryNames[s.cat]
               : "other";
    out += "\", \"name\": \"";
    obs::appendJsonEscaped(out, s.name);
    out += "\"";
    if (s.arg_key[0] != nullptr || s.arg_key[1] != nullptr) {
        out += ", \"args\": {";
        bool first_arg = true;
        for (int a = 0; a < 2; ++a) {
            if (s.arg_key[a] == nullptr)
                continue;
            if (!first_arg)
                out += ", ";
            first_arg = false;
            out += "\"";
            obs::appendJsonEscaped(out, s.arg_key[a]);
            std::snprintf(buf, sizeof(buf), "\": %lld",
                          static_cast<long long>(s.arg_val[a]));
            out += buf;
        }
        out += "}";
    }
    out += "}";
}

void
appendThreadNameEvent(std::string &out, int64_t pid, int tid,
                      const char *name, bool first)
{
    if (!first)
        out += ",\n";
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "    {\"ph\": \"M\", \"pid\": %lld, \"tid\": %d, "
                  "\"name\": \"thread_name\", \"args\": {\"name\": \"",
                  static_cast<long long>(pid), tid);
    out += buf;
    obs::appendJsonEscaped(out, name);
    out += "\"}}";
}

std::string
renderJsonLocked(Registry &reg) SNIP_REQUIRES(reg.mu)
{
    const int64_t pid = static_cast<int64_t>(::getpid());
    std::string doc = "{\"traceEvents\": [\n";
    bool first = true;
    for (const Ring *r : reg.rings) {
        if (const char *tn =
                r->thread_name.load(std::memory_order_acquire)) {
            appendThreadNameEvent(doc, pid, r->tid, tn, first);
            first = false;
        }
        const uint64_t head = r->head.load(std::memory_order_acquire);
        const uint64_t cap = static_cast<uint64_t>(kRingCapacity);
        const uint64_t lo = head > cap ? head - cap + 1 : 1;
        for (uint64_t ticket = lo; ticket <= head; ++ticket) {
            SpanCopy s;
            if (!readCell(r->cells[(ticket - 1) % cap], ticket, &s))
                continue; // torn by a concurrent writer; skip
            appendEvent(doc, pid, r->tid, s, first);
            first = false;
        }
    }
    doc += "\n  ], \"displayTimeUnit\": \"ms\"}\n";
    return doc;
}

} // namespace

namespace detail {

void
resolveFromEnv()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    if (!obs::detail::pending(obs::kTrace))
        return; // raced with another resolver/configure()
    obs::detail::envSinkConfig(obs::kTrace, &reg.config);
    obs::detail::applySink(obs::kTrace, reg.config);
}

Ring &
ringSlow()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    if (t_ring == nullptr) {
        t_ring = new Ring; // leaked; see Registry::rings
        reg.rings.push_back(t_ring);
        t_ring->tid = static_cast<int>(reg.rings.size());
    }
    return *t_ring;
}

} // namespace detail

void
setCurrentThreadName(const char *name)
{
    if (!enabled())
        return;
    detail::ring().thread_name.store(name, std::memory_order_release);
}

std::string
renderJson()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    return renderJsonLocked(reg);
}

bool
flush()
{
    if (!obs::detail::active(obs::kTrace))
        return true;
    Registry &reg = registry();
    obs::Export doc;
    {
        util::MutexLock lk(reg.mu);
        if (!reg.config.json_path.empty())
            doc = reg.exporter.prepare(reg.config.json_path,
                                       renderJsonLocked(reg));
    }
    return reg.exporter.publish(doc);
}

int64_t
spansRecorded()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    int64_t n = 0;
    for (const Ring *r : reg.rings) {
        const uint64_t head = r->head.load(std::memory_order_acquire);
        n += static_cast<int64_t>(
            std::min(head, static_cast<uint64_t>(kRingCapacity)));
    }
    return n;
}

void
configure(const Config &config)
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    reg.config = config;
    obs::detail::applySink(obs::kTrace, config);
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

} // namespace trace
} // namespace snip
