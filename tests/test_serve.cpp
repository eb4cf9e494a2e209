/**
 * @file
 * Serving runtime tests: decode-vs-full-sequence bit-identity (FP32 KV
 * cache), FP8 KV tolerance, thread-count determinism, page free-list
 * reuse, continuous-batching equivalence, and the zero-allocation
 * contract of a warmed decode step (counted by alloc_counter.h).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "nn/model.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "serve/kv_cache.h"
#include "serve/request_queue.h"
#include "tensor/gemm.h"
#include "alloc_counter.h"
#include "testing_util.h"
#include "train/presets.h"

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
    m.n_kv_heads = 2; // exercise GQA in the decode path
    m.max_seq = 32;
    m.init_std = 0.3f;
    return m;
}

std::vector<int32_t>
someTokens(int64_t n, int64_t vocab, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int32_t> t;
    for (int64_t i = 0; i < n; ++i)
        t.push_back(static_cast<int32_t>(
            rng.nextBelow(static_cast<uint64_t>(vocab))));
    return t;
}

serve::KvCacheConfig
cacheConfigFor(const ModelConfig &m, serve::KvCacheMode mode,
               int64_t max_seqs = 2, int64_t page_tokens = 4)
{
    serve::KvCacheConfig kc;
    kc.n_layers = m.n_blocks;
    kc.n_kv_heads = m.n_kv_heads;
    kc.head_dim = m.headDim();
    kc.page_tokens = page_tokens;
    kc.max_seqs = max_seqs;
    kc.max_seq_tokens = m.max_seq;
    kc.max_pages = max_seqs * m.n_blocks *
                   ((m.max_seq + page_tokens - 1) / page_tokens);
    kc.mode = mode;
    return kc;
}

/**
 * Greedy-decode @p steps tokens after prefilling @p prompt, returning
 * every decode-step logits row (steps x vocab). When @p forced is
 * non-null the generated token is overridden (teacher forcing), so
 * FP8-cache logits can be compared against an FP32 trajectory.
 */
std::vector<std::vector<float>>
decodeTrajectory(LlamaModel &model, const std::vector<int32_t> &prompt,
                 int64_t steps, serve::KvCacheMode mode,
                 std::vector<int32_t> *generated,
                 const std::vector<int32_t> *forced = nullptr)
{
    const int64_t vocab = model.config().vocab_size;
    serve::KvCache cache(cacheConfigFor(model.config(), mode));
    const int64_t sid = 0;
    cache.beginSequence(sid);
    KvCacheHandle h;
    h.cache = &cache;
    h.seq_ids = &sid;
    h.count = 1;

    Tensor plog =
        model.forward(prompt, 1, static_cast<int64_t>(prompt.size()),
                      ForwardMode::Prefill, h);
    const float *last =
        plog.data() + (static_cast<int64_t>(prompt.size()) - 1) * vocab;
    int32_t tok = 0;
    for (int64_t v = 1; v < vocab; ++v)
        if (last[v] > last[tok])
            tok = static_cast<int32_t>(v);
    if (forced)
        tok = (*forced)[0];
    if (generated)
        generated->push_back(tok);

    std::vector<std::vector<float>> rows;
    std::vector<float> logits(static_cast<size_t>(vocab));
    for (int64_t s = 0; s < steps; ++s) {
        model.decodeStep(&tok, 1, h, logits.data());
        rows.push_back(logits);
        tok = 0;
        for (int64_t v = 1; v < vocab; ++v)
            if (logits[static_cast<size_t>(v)] >
                logits[static_cast<size_t>(tok)])
                tok = static_cast<int32_t>(v);
        if (forced)
            tok = (*forced)[static_cast<size_t>(s + 1)];
        if (generated)
            generated->push_back(tok);
    }
    cache.endSequence(sid);
    return rows;
}

/** Full-sequence (Train-mode) logits row for the last position of
 *  @p tokens — the decode reference. */
std::vector<float>
fullSeqLastRow(LlamaModel &model, const std::vector<int32_t> &tokens)
{
    const int64_t len = static_cast<int64_t>(tokens.size());
    const int64_t vocab = model.config().vocab_size;
    Tensor logits = model.forward(tokens, 1, len, ForwardMode::Train);
    const float *row = logits.data() + (len - 1) * vocab;
    return std::vector<float>(row, row + vocab);
}

// ------------------------------------------------------ bit identity

TEST(ServeDecode, Fp32CacheBitIdenticalToFullSequence)
{
    // Decode rows run thin-M GEMMs (the pack-free rows kernel) that
    // form every element exactly as the full-sequence forward does.
    GlobalPoolGuard pool_guard;

    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 21);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));
    const auto prompt = someTokens(7, cfg.vocab_size, 22);
    const int64_t steps = 8;

    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        runtime::setGlobalThreadCount(threads);
        std::vector<int32_t> generated;
        auto rows = decodeTrajectory(model, prompt, steps,
                                     serve::KvCacheMode::Fp32,
                                     &generated);
        std::vector<int32_t> ctx = prompt;
        for (int64_t s = 0; s < steps; ++s) {
            ctx.push_back(generated[static_cast<size_t>(s)]);
            const auto ref = fullSeqLastRow(model, ctx);
            for (int64_t v = 0; v < cfg.vocab_size; ++v)
                ASSERT_EQ(rows[static_cast<size_t>(s)]
                              [static_cast<size_t>(v)],
                          ref[static_cast<size_t>(v)])
                    << "step " << s << " vocab " << v;
        }
    }
}

/** Max |decode - full-sequence| over a fresh FP32-cache trajectory of
 *  @p model, against the full-sequence rows of @p ref: 0 exactly when
 *  every decode row is bit-identical to the matching reference row. */
float
decodeVsFullSequenceMaxDiff(LlamaModel &model, LlamaModel &ref,
                            const std::vector<int32_t> &prompt,
                            int64_t steps)
{
    std::vector<int32_t> generated;
    const auto rows = decodeTrajectory(model, prompt, steps,
                                       serve::KvCacheMode::Fp32,
                                       &generated);
    std::vector<int32_t> ctx = prompt;
    float max_diff = 0.0f;
    for (int64_t s = 0; s < steps; ++s) {
        ctx.push_back(generated[static_cast<size_t>(s)]);
        const auto full = fullSeqLastRow(ref, ctx);
        for (size_t v = 0; v < full.size(); ++v)
            max_diff = std::max(
                max_diff,
                std::fabs(rows[static_cast<size_t>(s)][v] - full[v]));
    }
    return max_diff;
}

TEST(ServeDecode, DecodeFollowsWeightUpdates)
{
    // Decode serves each weight panel from the layer's pack cache; a
    // weight write must reach the next decode step. The reference is a
    // fresh model holding a copy of the current weights, so a stale
    // panel anywhere in the decoding model shows up as a mismatch.
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 23);
    const PrecisionScheme fp8 = PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8);
    model.setScheme(fp8);
    auto freshCopy = [&] {
        auto ref = std::make_unique<LlamaModel>(cfg, 0);
        ref->setScheme(fp8);
        const ParamList from = model.params();
        const ParamList to = ref->params();
        for (size_t i = 0; i < from.size(); ++i)
            *to[i].value = *from[i].value;
        return ref;
    };
    const auto prompt = someTokens(6, cfg.vocab_size, 24);
    const int64_t steps = 4;
    // Warm every decode-side cache before the weights move.
    EXPECT_EQ(decodeVsFullSequenceMaxDiff(model, *freshCopy(), prompt,
                                          steps),
              0.0f);

    // A write through the mutable accessor stales that layer's panels.
    for (int i = 0; i < model.registry().numLinear(); ++i) {
        Tensor &w = model.linear(i).weight();
        for (int64_t e = 0; e < w.numel(); e += 3)
            w.at(e) = -1.5f * w.at(e);
    }
    EXPECT_EQ(decodeVsFullSequenceMaxDiff(model, *freshCopy(), prompt,
                                          steps),
              0.0f);

    // A raw write (the optimizer's path) followed by the global
    // invalidation stales every panel.
    for (const ParamRef &p : model.params()) {
        float *d = p.value->data();
        for (int64_t e = 1; e < p.value->numel(); e += 2)
            d[e] += 0.25f;
    }
    invalidateWeightPacks();
    EXPECT_EQ(decodeVsFullSequenceMaxDiff(model, *freshCopy(), prompt,
                                          steps),
              0.0f);
}

TEST(ServeDecode, BitwiseDeterministicAcrossThreadCounts)
{
    GlobalPoolGuard pool_guard;
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 31);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));
    const auto prompt = someTokens(6, cfg.vocab_size, 32);
    const int64_t steps = 6;

    for (serve::KvCacheMode mode :
         {serve::KvCacheMode::Fp8, serve::KvCacheMode::Fp32}) {
        runtime::setGlobalThreadCount(1);
        std::vector<int32_t> gen1;
        const auto ref =
            decodeTrajectory(model, prompt, steps, mode, &gen1);
        for (int threads : {2, 8}) {
            SCOPED_TRACE(threads);
            runtime::setGlobalThreadCount(threads);
            std::vector<int32_t> gen;
            const auto got =
                decodeTrajectory(model, prompt, steps, mode, &gen);
            EXPECT_EQ(gen, gen1);
            for (size_t s = 0; s < ref.size(); ++s)
                for (size_t v = 0; v < ref[s].size(); ++v)
                    ASSERT_EQ(got[s][v], ref[s][v])
                        << "step " << s << " vocab " << v;
        }
    }
}

TEST(ServeDecode, Fp8CacheTracksFp32WithinTolerance)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 41);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));
    const auto prompt = someTokens(8, cfg.vocab_size, 42);
    const int64_t steps = 8;

    // Teacher-force the FP32 trajectory through the FP8 cache so the
    // two logit streams stay comparable step by step.
    std::vector<int32_t> fp32_tokens;
    const auto ref = decodeTrajectory(model, prompt, steps,
                                      serve::KvCacheMode::Fp32,
                                      &fp32_tokens);
    const auto got = decodeTrajectory(model, prompt, steps,
                                      serve::KvCacheMode::Fp8, nullptr,
                                      &fp32_tokens);

    for (size_t s = 0; s < ref.size(); ++s) {
        float max_abs = 0.0f;
        for (float r : ref[s])
            max_abs = std::max(max_abs, std::fabs(r));
        for (size_t v = 0; v < ref[s].size(); ++v)
            EXPECT_NEAR(got[s][v], ref[s][v],
                        0.08f * max_abs + 0.02f)
                << "step " << s << " vocab " << v;
    }
}

// -------------------------------------------------------- page reuse

TEST(KvCachePages, FreeListReusesPagesAcrossRequests)
{
    ModelConfig cfg = microModel();
    serve::KvCacheConfig kc =
        cacheConfigFor(cfg, serve::KvCacheMode::Fp8, /*max_seqs=*/2,
                       /*page_tokens=*/4);
    serve::KvCache cache(kc);
    const int64_t total = cache.pagesFree();
    EXPECT_EQ(cache.pagesInUse(), 0);

    std::vector<float> row(static_cast<size_t>(kc.kvDim()), 0.5f);
    int64_t first_peak = -1;
    for (int round = 0; round < 5; ++round) {
        SCOPED_TRACE(round);
        cache.beginSequence(0);
        cache.beginSequence(1);
        for (int64_t t = 0; t < 10; ++t)
            for (int64_t layer = 0; layer < kc.n_layers; ++layer) {
                cache.append(0, layer, row.data(), row.data());
                cache.append(1, layer, row.data(), row.data());
            }
        // 10 tokens / 4-token pages = 3 pages per (seq, layer).
        EXPECT_EQ(cache.pagesInUse(), 2 * kc.n_layers * 3);
        if (first_peak < 0)
            first_peak = cache.pagesInUse();
        // Steady state: repeated identical requests reuse the same
        // pages — no growth round over round.
        EXPECT_EQ(cache.pagesInUse(), first_peak);
        cache.endSequence(0);
        cache.endSequence(1);
        EXPECT_EQ(cache.pagesInUse(), 0);
        EXPECT_EQ(cache.pagesFree(), total);
    }
}

TEST(KvCachePages, EngineReleasesAllPagesAfterDrain)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 51);

    serve::EngineConfig ec;
    ec.max_concurrency = 3;
    serve::Engine engine(model, ec);
    const int64_t total_free = engine.kvCache().pagesFree();

    serve::SyntheticStreamConfig sc;
    sc.n_requests = 8;
    sc.vocab = cfg.vocab_size;
    sc.min_prompt = 3;
    sc.max_prompt = 10;
    sc.min_new = 2;
    sc.max_new = 8;
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(round);
        auto queue = serve::RequestQueue::synthetic(sc);
        auto results = engine.run(queue);
        EXPECT_EQ(results.size(), static_cast<size_t>(sc.n_requests));
        EXPECT_EQ(engine.kvCache().pagesInUse(), 0);
        EXPECT_EQ(engine.kvCache().pagesFree(), total_free);
        EXPECT_EQ(engine.kvCache().activeSequences(), 0);
    }
}

// ------------------------------------------- batching equivalence

TEST(ServeEngine, ContinuousBatchingMatchesSequentialTokens)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(2);
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 61);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));

    serve::SyntheticStreamConfig sc;
    sc.n_requests = 6;
    sc.vocab = cfg.vocab_size;
    sc.min_prompt = 3;
    sc.max_prompt = 12;
    sc.min_new = 3;
    sc.max_new = 10;

    serve::EngineConfig batched;
    batched.max_concurrency = 4;
    serve::Engine engine_batched(model, batched);
    auto q1 = serve::RequestQueue::synthetic(sc);
    auto coalesced = engine_batched.run(q1);
    EXPECT_GT(engine_batched.stats().decode_steps, 0);

    serve::EngineConfig seq;
    seq.max_concurrency = 1; // one request at a time
    serve::Engine engine_seq(model, seq);
    auto q2 = serve::RequestQueue::synthetic(sc);
    auto sequential = engine_seq.run(q2);

    ASSERT_EQ(coalesced.size(), sequential.size());
    for (size_t i = 0; i < coalesced.size(); ++i) {
        EXPECT_EQ(coalesced[i].id, sequential[i].id);
        EXPECT_EQ(coalesced[i].tokens, sequential[i].tokens)
            << "request " << coalesced[i].id;
    }
}

// ------------------------------------------------- zero allocations

TEST(ServeDecode, WarmedDecodeStepPerformsZeroHeapAllocations)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1); // inline path: no pool Jobs

    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 71);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));

    serve::KvCache cache(
        cacheConfigFor(cfg, serve::KvCacheMode::Fp8, /*max_seqs=*/2));
    const std::vector<int64_t> sids = {0, 1};
    cache.beginSequence(0);
    cache.beginSequence(1);
    KvCacheHandle h;
    h.cache = &cache;
    h.seq_ids = sids.data();
    h.count = 2;

    // Prefill both sequences (cache pages for the prompts allocate
    // lazily from the preallocated pool — no heap).
    const auto prompt = someTokens(5, cfg.vocab_size, 72);
    for (int64_t sid = 0; sid < 2; ++sid) {
        KvCacheHandle one;
        one.cache = &cache;
        one.seq_ids = &sids[static_cast<size_t>(sid)];
        one.count = 1;
        model.forward(prompt, 1, 5, ForwardMode::Prefill, one);
    }

    std::vector<int32_t> toks = {3, 4};
    std::vector<float> logits(
        static_cast<size_t>(2 * cfg.vocab_size));

    // Warm up arenas and the per-layer weight-pack caches.
    for (int i = 0; i < 3; ++i)
        model.decodeStep(toks.data(), 2, h, logits.data());

    const int64_t allocs = allocDelta(
        [&] { model.decodeStep(toks.data(), 2, h, logits.data()); });
    EXPECT_EQ(allocs, 0);
}

// ----------------------------------------------------- mode guards

TEST(ServeDecode, BackwardAfterInferenceForwardDies)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 81);

    serve::KvCache cache(
        cacheConfigFor(cfg, serve::KvCacheMode::Fp32));
    const int64_t sid = 0;
    cache.beginSequence(sid);
    KvCacheHandle h;
    h.cache = &cache;
    h.seq_ids = &sid;
    h.count = 1;

    const auto prompt = someTokens(4, cfg.vocab_size, 82);
    Tensor logits = model.forward(prompt, 1, 4, ForwardMode::Prefill, h);

    // Backprop after an inference-mode forward must be a hard error
    // with a clear message (the attention state was released).
    Tensor dlogits(logits.shape());
    dlogits.zero();
    EXPECT_DEATH(model.backward(dlogits), "cannot be backpropagated");
}

} // namespace
} // namespace snip
