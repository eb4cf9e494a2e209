/**
 * @file
 * Span tracer contracts: the flight-recorder ring keeps the newest
 * spans across wraparound, the Chrome trace JSON export is well-formed
 * and non-empty, the warmed traced hot path (bare recording AND a
 * traced decode step) performs zero heap allocations (counted by
 * alloc_counter.h), and SNIP_TRACE=off leaves training bit-identical
 * across thread counts.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "nn/model.h"
#include "runtime/thread_pool.h"
#include "serve/kv_cache.h"
#include "telemetry/obs.h"
#include "tensor/gemm.h"
#include "alloc_counter.h"
#include "testing_util.h"
#include "train/presets.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace snip {
namespace {

ModelConfig
microModel()
{
    ModelConfig m = tinyTestModel();
    m.n_blocks = 2;
    m.d_model = 16;
    m.ffn_hidden = 24;
    m.vocab_size = 32;
    m.n_heads = 4;
    m.n_kv_heads = 2;
    m.max_seq = 32;
    m.init_std = 0.3f;
    return m;
}

serve::KvCacheConfig
cacheConfigFor(const ModelConfig &m, int64_t max_seqs)
{
    serve::KvCacheConfig kc;
    kc.n_layers = m.n_blocks;
    kc.n_kv_heads = m.n_kv_heads;
    kc.head_dim = m.headDim();
    kc.page_tokens = 4;
    kc.max_seqs = max_seqs;
    kc.max_seq_tokens = m.max_seq;
    kc.max_pages = max_seqs * m.n_blocks * ((m.max_seq + 3) / 4);
    kc.mode = serve::KvCacheMode::Fp8;
    return kc;
}

TEST(Trace, ConfigureFromSpecParsing)
{
    ObsGuard obs_guard;
    EXPECT_TRUE(trace::configureFromSpec("off"));
    EXPECT_FALSE(trace::enabled());
    EXPECT_TRUE(trace::configureFromSpec("on"));
    EXPECT_TRUE(trace::enabled());
    EXPECT_TRUE(trace::configureFromSpec("json:some_path.json"));
    EXPECT_TRUE(trace::enabled());
    EXPECT_TRUE(trace::configureFromSpec(nullptr)); // unset = off
    EXPECT_FALSE(trace::enabled());
    EXPECT_FALSE(trace::configureFromSpec("bogus"));
    EXPECT_FALSE(trace::configureFromSpec("json:"));
}

TEST(Trace, RingWraparoundKeepsNewestSpans)
{
    ObsGuard obs_guard;
    trace::Config cfg;
    cfg.enabled = true;
    trace::configure(cfg);

    // Overfill this thread's ring; the oldest 100 spans must be the
    // ones overwritten (flight-recorder semantics: newest win).
    const int64_t total = trace::kRingCapacity + 100;
    for (int64_t i = 0; i < total; ++i)
        trace::record(trace::Category::Train, "wrap_probe", i, 1,
                      "wrap_i", i);

    const std::string doc = trace::renderJson();
    EXPECT_NE(doc.find("\"wrap_i\": " + std::to_string(total - 1)),
              std::string::npos)
        << "newest span missing after wraparound";
    EXPECT_NE(doc.find("\"wrap_i\": 100}"), std::string::npos)
        << "oldest surviving span missing";
    EXPECT_EQ(doc.find("\"wrap_i\": 42}"), std::string::npos)
        << "overwritten span still exported";
    EXPECT_EQ(doc.find("\"wrap_i\": 99}"), std::string::npos)
        << "overwritten span still exported";
}

TEST(Trace, JsonExportIsWellFormedAndNonEmpty)
{
    ObsGuard obs_guard;
    const std::string path = "test_trace_out.json";
    std::remove(path.c_str());

    // The spec string is exactly what SNIP_TRACE=json:<path> hands
    // over at startup.
    ASSERT_TRUE(trace::configureFromSpec(("json:" + path).c_str()));

    {
        obs::Scope outer(trace::Category::Train, "export_outer", "step",
                         7);
        obs::Scope inner(trace::Category::Serve, "export_inner", "id", 3,
                         "tokens", 11);
    }
    trace::setCurrentThreadName("trace-test");
    ASSERT_TRUE(trace::flush());
    EXPECT_GT(trace::spansRecorded(), 0);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"export_outer\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"export_inner\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"cat\": \"train\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\": \"serve\""), std::string::npos);
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
    for (const char *key : {"\"pid\":", "\"tid\":", "\"ts\":",
                            "\"dur\":", "\"args\":"})
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    std::remove(path.c_str());
}

TEST(Trace, WarmedHotPathAllocatesNothing)
{
    ObsGuard obs_guard;
    trace::Config cfg;
    cfg.enabled = true;
    trace::configure(cfg);

    // Warm-up creates this thread's ring; everything after is plain
    // stores into preallocated cells.
    trace::record(trace::Category::Gemm, "warm", 0, 1);

    const int64_t allocs = allocDelta([] {
        for (int i = 0; i < 20000; ++i) {
            trace::record(trace::Category::Gemm, "hot", i, 1, "m", i,
                          "n", i);
            obs::Scope scoped(trace::Category::Pool, "scoped", "n", i);
        }
    });
    EXPECT_EQ(allocs, 0);
}

TEST(Trace, WarmedTracedDecodeStepPerformsZeroHeapAllocations)
{
    ObsGuard obs_guard;
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1); // inline path: no pool Jobs

    trace::Config cfg;
    cfg.enabled = true;
    trace::configure(cfg);

    ModelConfig mc = microModel();
    LlamaModel model(mc, 71);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));

    serve::KvCache cache(cacheConfigFor(mc, /*max_seqs=*/2));
    const std::vector<int64_t> sids = {0, 1};
    cache.beginSequence(0);
    cache.beginSequence(1);
    std::vector<float> logits(static_cast<size_t>(2 * mc.vocab_size));

    Rng rng(72);
    std::vector<int32_t> prompt;
    for (int64_t i = 0; i < 5; ++i)
        prompt.push_back(static_cast<int32_t>(
            rng.nextBelow(static_cast<uint64_t>(mc.vocab_size))));
    for (size_t i = 0; i < sids.size(); ++i) {
        const KvCacheHandle one{&cache, &sids[i], 1};
        model.inferStep(prompt.data(), 5, one, logits.data());
    }

    const KvCacheHandle h{&cache, sids.data(), 2};
    std::vector<int32_t> toks = {3, 4};

    // Warm up arenas, weight-pack caches, and the trace ring.
    for (int i = 0; i < 3; ++i)
        model.inferStep(toks.data(), 2, h, logits.data());

    // The GEMM/attention spans inside the decode step must not break
    // the serving zero-alloc contract.
    const int64_t allocs = allocDelta(
        [&] { model.inferStep(toks.data(), 2, h, logits.data()); });
    EXPECT_EQ(allocs, 0);
}

TEST(Trace, DisabledModeIsFree)
{
    ObsGuard obs_guard;
    ASSERT_TRUE(trace::configureFromSpec("off"));

    const int64_t spans_before = trace::spansRecorded();
    const int64_t allocs = allocDelta([] {
        for (int i = 0; i < 1000; ++i) {
            trace::record(trace::Category::Serve, "off_probe", i, 1);
            obs::Scope scoped(trace::Category::Serve, "off_scoped");
        }
    });
    EXPECT_EQ(allocs, 0);
    EXPECT_EQ(trace::spansRecorded(), spans_before);
}

TEST(Trace, OffModeTrainingBitIdenticalAcrossThreadCounts)
{
    ObsGuard obs_guard;
    GlobalPoolGuard pool_guard;
    ASSERT_TRUE(trace::configureFromSpec("off"));

    TrainerConfig cfg = trainerPreset(tinyTestModel());
    std::vector<double> ref;
    for (int threads : {1, 2, 8}) {
        runtime::setGlobalThreadCount(threads);
        Trainer trainer(cfg);
        const std::vector<double> losses = trainer.train(6);
        if (ref.empty())
            ref = losses;
        else
            EXPECT_EQ(losses, ref)
                << "trace-off training diverged at " << threads
                << " threads";
    }
    ASSERT_FALSE(ref.empty());

    // Tracing observes, never steers: the traced run reproduces the
    // same bits (the spans only watch the phases).
    runtime::setGlobalThreadCount(2);
    trace::Config on;
    on.enabled = true;
    trace::configure(on);
    Trainer traced(cfg);
    EXPECT_EQ(traced.train(6), ref);
}

} // namespace
} // namespace snip
