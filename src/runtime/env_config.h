/**
 * @file
 * Process-wide runtime configuration captured from the environment.
 *
 * Historically every subsystem called std::getenv for its own knob
 * (SNIP_THREADS in the thread pool, SNIP_SIMD in the dispatcher, ...)
 * at first use, which made it impossible to answer "what configuration
 * is this process actually running under?" without replicating each
 * parser. EnvConfig centralizes the capture and the parsing: the
 * environment is read once, on first use, into an immutable snapshot
 * that every subsystem resolves its knob from and that benches can
 * print verbatim via dump().
 *
 * Knobs:
 *   SNIP_THREADS    worker count for the global pool (>=1, capped 512)
 *   SNIP_SIMD       kernel backend: auto|avx2|scalar
 *   SNIP_GEMM_PACK  retired: every GEMM packs; the value is ignored
 *   SNIP_ATTN       retired: attention has one schedule; ignored
 *   SNIP_TELEMETRY  telemetry sink: off|on|json:<path>
 *   SNIP_TRACE      span-trace sink: off|on|json:<path>
 *   SNIP_KV_CACHE   serving KV-cache storage: fp8|fp32
 *   SNIP_KV_PAGE    serving KV-cache page size in tokens (1..4096)
 *   SNIP_FAULT      fault-injection schedule:
 *                   <site>:<n|every-k|p=x[@seed]>[,...] (off when
 *                   unset; see runtime/fault_injection.h)
 *
 * Only the knobs whose grammar is owned here (threads, KV page size)
 * are parsed eagerly; the string-valued specs are handed to their
 * owning modules (simd::, telemetry::, ...) untouched so the parse
 * warnings keep firing from the subsystem that understands them. The
 * two retired knobs are still captured (gemmPack(), attn()) so the
 * repository benchmark can refuse to run under a value that no longer
 * selects anything; nothing in the library reads them.
 */
#ifndef SNIP_RUNTIME_ENV_CONFIG_H
#define SNIP_RUNTIME_ENV_CONFIG_H

#include <cstdint>
#include <string>

namespace snip {
namespace runtime {

/** One captured environment variable: present/absent plus raw text. */
struct EnvKnob
{
    bool set = false;
    std::string value;

    /** The captured text, or null when the variable was unset —
     *  exactly what std::getenv would have returned at capture time. */
    const char *
    cstrOrNull() const
    {
        return set ? value.c_str() : nullptr;
    }
};

/** Immutable snapshot of every SNIP_* environment knob. */
class EnvConfig
{
  public:
    /** Read the current environment into a fresh snapshot. */
    static EnvConfig fromEnvironment();

    /** Parsed SNIP_THREADS: the historical defaultThreadCount()
     *  contract (an integer >= 1 with nothing after it, capped at 512;
     *  otherwise a warning and std::thread::hardware_concurrency,
     *  floored at 1). */
    int threads() const { return threads_; }

    /** Parsed SNIP_KV_PAGE: tokens per KV-cache page, default 16,
     *  clamped to [1, 4096] with a warning on invalid input. */
    int64_t kvPageTokens() const { return kv_page_tokens_; }

    const EnvKnob &threadsKnob() const { return threads_knob_; }
    const EnvKnob &simd() const { return simd_; }
    const EnvKnob &gemmPack() const { return gemm_pack_; }
    const EnvKnob &attn() const { return attn_; }
    const EnvKnob &telemetry() const { return telemetry_; }
    const EnvKnob &trace() const { return trace_; }
    const EnvKnob &kvCache() const { return kv_cache_; }
    const EnvKnob &kvPage() const { return kv_page_; }
    const EnvKnob &fault() const { return fault_; }

    /** Human-readable multi-line rendering of every knob: the
     *  effective value plus the raw environment text (or "unset"). */
    std::string dump() const;

  private:
    EnvKnob threads_knob_;
    EnvKnob simd_;
    EnvKnob gemm_pack_;
    EnvKnob attn_;
    EnvKnob telemetry_;
    EnvKnob trace_;
    EnvKnob kv_cache_;
    EnvKnob kv_page_;
    EnvKnob fault_;
    int threads_ = 1;
    int64_t kv_page_tokens_ = 16;
};

/** The process-wide snapshot, captured on first use. */
const EnvConfig &envConfig();

/**
 * Re-capture the environment into the process-wide snapshot and
 * return it. Test-only: callers own the race (no in-flight readers),
 * mirroring simd::reinitFromEnv().
 */
const EnvConfig &reloadEnvConfig();

} // namespace runtime
} // namespace snip

#endif // SNIP_RUNTIME_ENV_CONFIG_H
