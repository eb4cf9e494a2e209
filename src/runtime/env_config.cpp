#include "runtime/env_config.h"

#include <cstdlib>
#include <thread>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace snip {
namespace runtime {

namespace {

EnvKnob
captureKnob(const char *name)
{
    EnvKnob k;
    if (const char *v = std::getenv(name)) {
        k.set = true;
        k.value = v;
    }
    return k;
}

int
parseThreads(const EnvKnob &knob)
{
    if (knob.set) {
        const char *env = knob.value.c_str();
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<int>(std::min<long>(v, 512));
        warn("ignoring invalid SNIP_THREADS value '", env, "'");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

int64_t
parseKvPage(const EnvKnob &knob)
{
    constexpr int64_t kDefault = 16;
    if (!knob.set)
        return kDefault;
    const char *env = knob.value.c_str();
    char *end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 1) {
        warn("ignoring invalid SNIP_KV_PAGE value '", env, "'");
        return kDefault;
    }
    return std::min<long>(v, 4096);
}

void
appendKnob(std::string *out, const char *name, const EnvKnob &knob,
           const std::string &effective)
{
    out->append(strformat("  %-14s = %-10s (%s)\n", name,
                          effective.c_str(),
                          knob.set
                              ? ("env \"" + knob.value + "\"").c_str()
                              : "unset"));
}

util::Mutex g_mu;
// Intentionally leaked so late readers (static destructors, atexit
// telemetry flushes) never see a destroyed snapshot. The POINTER is
// guarded; the snapshot it points at is immutable after publication
// (reloadEnvConfig is a test-only seam, documented in the header).
EnvConfig *g_config SNIP_GUARDED_BY(g_mu) = nullptr;

} // namespace

EnvConfig
EnvConfig::fromEnvironment()
{
    EnvConfig c;
    c.threads_knob_ = captureKnob("SNIP_THREADS");
    c.simd_ = captureKnob("SNIP_SIMD");
    c.gemm_pack_ = captureKnob("SNIP_GEMM_PACK");
    c.attn_ = captureKnob("SNIP_ATTN");
    c.telemetry_ = captureKnob("SNIP_TELEMETRY");
    c.trace_ = captureKnob("SNIP_TRACE");
    c.kv_cache_ = captureKnob("SNIP_KV_CACHE");
    c.kv_page_ = captureKnob("SNIP_KV_PAGE");
    c.fault_ = captureKnob("SNIP_FAULT");
    c.threads_ = parseThreads(c.threads_knob_);
    c.kv_page_tokens_ = parseKvPage(c.kv_page_);
    return c;
}

std::string
EnvConfig::dump() const
{
    std::string out = "runtime config:\n";
    appendKnob(&out, "SNIP_THREADS", threads_knob_,
               strformat("%d", threads_));
    appendKnob(&out, "SNIP_SIMD", simd_,
               simd_.set ? simd_.value : "auto");
    appendKnob(&out, "SNIP_GEMM_PACK", gemm_pack_, "retired (ignored)");
    appendKnob(&out, "SNIP_ATTN", attn_, "retired (ignored)");
    appendKnob(&out, "SNIP_TELEMETRY", telemetry_,
               telemetry_.set ? telemetry_.value : "off");
    appendKnob(&out, "SNIP_TRACE", trace_,
               trace_.set ? trace_.value : "off");
    appendKnob(&out, "SNIP_KV_CACHE", kv_cache_,
               kv_cache_.set ? kv_cache_.value : "fp8");
    appendKnob(&out, "SNIP_KV_PAGE", kv_page_,
               strformat("%lld",
                         static_cast<long long>(kv_page_tokens_)));
    appendKnob(&out, "SNIP_FAULT", fault_,
               fault_.set ? fault_.value : "off");
    return out;
}

const EnvConfig &
envConfig()
{
    util::MutexLock lk(g_mu);
    if (g_config == nullptr)
        g_config = new EnvConfig(EnvConfig::fromEnvironment());
    return *g_config;
}

const EnvConfig &
reloadEnvConfig()
{
    util::MutexLock lk(g_mu);
    if (g_config == nullptr)
        g_config = new EnvConfig;
    *g_config = EnvConfig::fromEnvironment();
    return *g_config;
}

} // namespace runtime
} // namespace snip
