/**
 * @file
 * EnvConfig tests: per-knob capture and parsing must match the
 * historical per-subsystem getenv behavior exactly, and the dump must
 * name every knob.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "runtime/env_config.h"
#include "serve/kv_cache.h"

namespace snip {
namespace {

/** Saves/restores one environment variable across a test. */
class EnvVarGuard
{
  public:
    explicit EnvVarGuard(const char *name) : name_(name)
    {
        const char *v = std::getenv(name);
        had_ = v != nullptr;
        if (had_)
            old_ = v;
    }
    ~EnvVarGuard()
    {
        if (had_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
        runtime::reloadEnvConfig();
    }
    EnvVarGuard(const EnvVarGuard &) = delete;
    EnvVarGuard &operator=(const EnvVarGuard &) = delete;

    void
    set(const char *value)
    {
        setenv(name_, value, 1);
        runtime::reloadEnvConfig();
    }
    void
    unset()
    {
        unsetenv(name_);
        runtime::reloadEnvConfig();
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

TEST(EnvConfig, ThreadsParsesHistoricalContract)
{
    EnvVarGuard guard("SNIP_THREADS");
    guard.set("3");
    EXPECT_EQ(runtime::envConfig().threads(), 3);
    guard.set("1");
    EXPECT_EQ(runtime::envConfig().threads(), 1);
    // Cap at 512, matching the historical defaultThreadCount().
    guard.set("100000");
    EXPECT_EQ(runtime::envConfig().threads(), 512);
    // Invalid values warn and fall back to hardware concurrency >= 1.
    guard.set("not-a-number");
    EXPECT_GE(runtime::envConfig().threads(), 1);
    guard.set("0");
    EXPECT_GE(runtime::envConfig().threads(), 1);
    guard.set("-4");
    EXPECT_GE(runtime::envConfig().threads(), 1);
    guard.unset();
    const int unset_threads = runtime::envConfig().threads();
    EXPECT_GE(unset_threads, 1);
    // Trailing characters make the whole value invalid (as for
    // SNIP_KV_PAGE): "3x" falls back like an unset variable instead of
    // being read as 3.
    guard.set("3x");
    EXPECT_EQ(runtime::envConfig().threads(), unset_threads);
}

TEST(EnvConfig, KvPageParsesAndClamps)
{
    EnvVarGuard guard("SNIP_KV_PAGE");
    guard.unset();
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 16);
    guard.set("32");
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 32);
    guard.set("1");
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 1);
    // Oversized pages clamp to 4096; garbage falls back to 16.
    guard.set("999999");
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 4096);
    guard.set("12abc");
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 16);
    guard.set("-5");
    EXPECT_EQ(runtime::envConfig().kvPageTokens(), 16);
}

TEST(EnvConfig, StringKnobsCaptureRawText)
{
    EnvVarGuard attn("SNIP_ATTN");
    attn.set("serial");
    EXPECT_TRUE(runtime::envConfig().attn().set);
    EXPECT_EQ(runtime::envConfig().attn().value, "serial");
    attn.unset();
    EXPECT_FALSE(runtime::envConfig().attn().set);
    EXPECT_EQ(runtime::envConfig().attn().cstrOrNull(), nullptr);

    EnvVarGuard simd("SNIP_SIMD");
    simd.set("scalar");
    EXPECT_EQ(runtime::envConfig().simd().value, "scalar");

    EnvVarGuard pack("SNIP_GEMM_PACK");
    pack.set("off");
    EXPECT_EQ(runtime::envConfig().gemmPack().value, "off");
}

TEST(EnvConfig, TraceKnobCapturesRawText)
{
    EnvVarGuard guard("SNIP_TRACE");
    guard.set("json:/tmp/spans.json");
    EXPECT_TRUE(runtime::envConfig().trace().set);
    EXPECT_EQ(runtime::envConfig().trace().value, "json:/tmp/spans.json");
    // Handed to trace::configureFromSpec untouched — the grammar is
    // owned there, so even a bogus spec is captured verbatim.
    guard.set("bogus");
    EXPECT_EQ(runtime::envConfig().trace().value, "bogus");
    guard.unset();
    EXPECT_FALSE(runtime::envConfig().trace().set);
    EXPECT_EQ(runtime::envConfig().trace().cstrOrNull(), nullptr);
}

TEST(EnvConfig, KvCacheModeFollowsEnv)
{
    EnvVarGuard guard("SNIP_KV_CACHE");
    guard.unset();
    EXPECT_EQ(serve::kvCacheModeFromEnv(), serve::KvCacheMode::Fp8);
    guard.set("fp32");
    EXPECT_EQ(serve::kvCacheModeFromEnv(), serve::KvCacheMode::Fp32);
    guard.set("fp8");
    EXPECT_EQ(serve::kvCacheModeFromEnv(), serve::KvCacheMode::Fp8);
    // Unknown spellings warn and keep the default.
    guard.set("bf16");
    EXPECT_EQ(serve::kvCacheModeFromEnv(), serve::KvCacheMode::Fp8);
}

TEST(EnvConfig, DumpNamesEveryKnob)
{
    const std::string d = runtime::envConfig().dump();
    for (const char *knob :
         {"SNIP_THREADS", "SNIP_SIMD", "SNIP_GEMM_PACK", "SNIP_ATTN",
          "SNIP_TELEMETRY", "SNIP_TRACE", "SNIP_KV_CACHE",
          "SNIP_KV_PAGE"})
        EXPECT_NE(d.find(knob), std::string::npos) << knob;
}

} // namespace
} // namespace snip
