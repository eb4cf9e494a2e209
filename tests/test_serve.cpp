/**
 * @file
 * Serving runtime tests: inference-step-vs-training-forward bit
 * identity (prefill in both KV modes, decode over an FP32 KV cache),
 * FP8 KV tolerance, thread-count determinism, page free-list reuse,
 * continuous-batching equivalence, and the zero-allocation contract of
 * warmed prefill and decode steps (counted by alloc_counter.h).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nn/model.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "serve/kv_cache.h"
#include "serve/request_queue.h"
#include "simd/dispatch.h"
#include "tensor/gemm.h"
#include "alloc_counter.h"
#include "testing_util.h"
#include "train/presets.h"
#include "util/crc32.h"

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

/** Index of the largest of @p n logits (first on ties). */
int32_t
argmax(const float *logits, int64_t n)
{
    int32_t best = 0;
    for (int64_t v = 1; v < n; ++v)
        if (logits[v] > logits[best])
            best = static_cast<int32_t>(v);
    return best;
}

/**
 * Prefill @p prompt, then greedy-decode @p steps tokens, all through
 * inferStep. Returns the logits of every step (steps + 1 rows, the
 * prompt's first): row s is the one generated token s was picked
 * from. When @p forced is non-null the generated token is overridden
 * (teacher forcing), so FP8-cache logits can be compared against an
 * FP32 trajectory.
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
    const KvCacheHandle h{&cache, &sid, 1};

    std::vector<std::vector<float>> rows;
    std::vector<float> logits(static_cast<size_t>(vocab));
    std::vector<int32_t> step = prompt;
    for (int64_t s = 0; s <= steps; ++s) {
        model.inferStep(step.data(), static_cast<int64_t>(step.size()), h,
                        logits.data());
        rows.push_back(logits);
        const int32_t tok = forced ? (*forced)[static_cast<size_t>(s)]
                                   : argmax(logits.data(), vocab);
        if (generated)
            generated->push_back(tok);
        step.assign(1, tok);
    }
    cache.endSequence(sid);
    return rows;
}

/** Training-forward logits row for the last position of @p tokens —
 *  the inference reference. */
std::vector<float>
fullSeqLastRow(LlamaModel &model, const std::vector<int32_t> &tokens)
{
    const int64_t len = static_cast<int64_t>(tokens.size());
    const int64_t vocab = model.config().vocab_size;
    Tensor logits = model.forward(tokens, 1, len);
    const float *row = logits.data() + (len - 1) * vocab;
    return std::vector<float>(row, row + vocab);
}

// ------------------------------------------------------ bit identity

TEST(ServeDecode, Fp32CacheBitIdenticalToFullSequence)
{
    // Every inference step equals the last row of the training forward
    // over the same prefix: the prompt step in both KV modes (a prompt
    // attends its own fp32 rows), every decode step over an FP32
    // cache. Decode rows run thin-M GEMMs (the pack-free rows kernel)
    // that form every element exactly as the full-sequence forward
    // does.
    GlobalPoolGuard pool_guard;

    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 21);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));
    const auto prompt = someTokens(7, cfg.vocab_size, 22);
    const int64_t steps = 8;

    for (int threads : {1, 2, 8}) {
        runtime::setGlobalThreadCount(threads);
        for (serve::KvCacheMode mode :
             {serve::KvCacheMode::Fp32, serve::KvCacheMode::Fp8}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, " +
                         serve::kvCacheModeName(mode));
            std::vector<int32_t> generated;
            auto rows =
                decodeTrajectory(model, prompt, steps, mode, &generated);
            const size_t checked =
                mode == serve::KvCacheMode::Fp32 ? rows.size() : 1;
            std::vector<int32_t> ctx = prompt;
            for (size_t s = 0; s < checked; ++s) {
                const auto ref = fullSeqLastRow(model, ctx);
                for (int64_t v = 0; v < cfg.vocab_size; ++v)
                    ASSERT_EQ(rows[s][static_cast<size_t>(v)],
                              ref[static_cast<size_t>(v)])
                        << "step " << s << " vocab " << v;
                ctx.push_back(generated[s]);
            }
        }
    }
}

/**
 * CRC32 of a greedy decode stream: each of @p prompts is prefilled
 * into its own slot, then the sequences decode @p steps coalesced
 * steps. The CRC covers every token fed to a step and every decode
 * step's logits rows, in step order.
 */
uint32_t
decodeStreamCrc(LlamaModel &model, serve::KvCacheMode mode,
                int64_t page_tokens,
                const std::vector<std::vector<int32_t>> &prompts,
                int64_t steps)
{
    const ModelConfig &cfg = model.config();
    const int64_t n = static_cast<int64_t>(prompts.size());
    const int64_t vocab = cfg.vocab_size;
    serve::KvCache cache(cacheConfigFor(cfg, mode, n, page_tokens));
    std::vector<int64_t> sids;
    std::vector<int32_t> toks;
    for (int64_t i = 0; i < n; ++i) {
        sids.push_back(i);
        cache.beginSequence(i);
    }
    std::vector<float> logits(static_cast<size_t>(n * vocab));
    for (int64_t i = 0; i < n; ++i) {
        const std::vector<int32_t> &p = prompts[static_cast<size_t>(i)];
        const KvCacheHandle one{&cache, &sids[static_cast<size_t>(i)], 1};
        model.inferStep(p.data(), static_cast<int64_t>(p.size()), one,
                        logits.data());
        toks.push_back(argmax(logits.data(), vocab));
    }
    const KvCacheHandle h{&cache, sids.data(), n};
    uint32_t crc = 0;
    for (int64_t s = 0; s < steps; ++s) {
        crc = crc32(toks.data(), toks.size() * sizeof(int32_t), crc);
        model.inferStep(toks.data(), n, h, logits.data());
        crc = crc32(logits.data(), logits.size() * sizeof(float), crc);
        for (int64_t i = 0; i < n; ++i)
            toks[static_cast<size_t>(i)] =
                argmax(logits.data() + i * vocab, vocab);
    }
    return crc;
}

TEST(ServeDecode, GoldenDecodeBits)
{
    // Absolute pin of the decode bits: two coalesced sequences, 12
    // greedy steps, in both KV modes, on a GQA model (hd 4, 4-token
    // pages) and on a 2-block tinyllamaSim (MHA, hd 8, 16-token
    // pages). The micro1 stream starts one sequence from a one-token
    // prompt, which must attend its own fp32 row, not the cached one.
    // GEMM low-order bits are backend-specific, so the pins are keyed
    // by backend: scalar rows are checked on every host, AVX2 rows
    // where the CPU has AVX2+FMA.
    BackendGuard backend_guard;
    ModelConfig tiny = tinyllamaSim();
    tiny.n_blocks = 2;
    struct Stream
    {
        const char *name;
        ModelConfig cfg;
        int64_t page_tokens;
        std::vector<int64_t> prompt_lens;
    };
    const Stream streams[] = {
        {"micro", microModel(), 4, {5, 7}},
        {"micro1", microModel(), 4, {1, 3}},
        {"tinyllama2", tiny, 16, {9, 14}},
    };
    struct Pin
    {
        const char *backend;
        const char *stream;
        serve::KvCacheMode mode;
        uint32_t crc;
    };
    const Pin pins[] = {
        {"scalar", "micro", serve::KvCacheMode::Fp8, 0xdd2d175fu},
        {"scalar", "micro", serve::KvCacheMode::Fp32, 0x99426b80u},
        {"scalar", "micro1", serve::KvCacheMode::Fp8, 0xa7ac8a43u},
        {"scalar", "micro1", serve::KvCacheMode::Fp32, 0x38b0de9fu},
        {"scalar", "tinyllama2", serve::KvCacheMode::Fp8, 0xa93ab310u},
        {"scalar", "tinyllama2", serve::KvCacheMode::Fp32, 0x763d8e24u},
        {"avx2", "micro", serve::KvCacheMode::Fp8, 0x26da38cbu},
        {"avx2", "micro", serve::KvCacheMode::Fp32, 0x1adc42e1u},
        {"avx2", "micro1", serve::KvCacheMode::Fp8, 0xb3d0bfe9u},
        {"avx2", "micro1", serve::KvCacheMode::Fp32, 0x49b7afadu},
        {"avx2", "tinyllama2", serve::KvCacheMode::Fp8, 0x6e560937u},
        {"avx2", "tinyllama2", serve::KvCacheMode::Fp32, 0x8b7c6e3au},
    };
    const int64_t steps = 12;
    for (const Pin &pin : pins) {
        if (std::strcmp(pin.backend, "avx2") == 0 &&
            !simd::cpuSupportsAvx2())
            continue;
        ASSERT_TRUE(simd::setBackendByName(pin.backend));
        for (const Stream &st : streams) {
            if (std::strcmp(st.name, pin.stream) != 0)
                continue;
            LlamaModel model(st.cfg, 91);
            model.setScheme(PrecisionScheme::uniform(
                model.registry().numLinear(), Precision::FP8));
            std::vector<std::vector<int32_t>> prompts;
            for (int64_t len : st.prompt_lens)
                prompts.push_back(someTokens(
                    len, st.cfg.vocab_size, 92 + static_cast<uint64_t>(len)));
            const uint32_t crc = decodeStreamCrc(model, pin.mode,
                                                 st.page_tokens, prompts,
                                                 steps);
            EXPECT_EQ(crc, pin.crc)
                << pin.backend << " " << pin.stream << " "
                << serve::kvCacheModeName(pin.mode) << ": got 0x"
                << std::hex << crc;
        }
    }
}

// ----------------------------------------------- page walker identity

/** The decode softmax as decode attention ran it over gathered slabs:
 *  scale + running max, scalar exp, double sum, float normalize. */
void
referenceDecodeSoftmax(float *s, int64_t len, float scale)
{
    float maxv = -1e30f;
    for (int64_t j = 0; j < len; ++j) {
        s[j] *= scale;
        maxv = std::max(maxv, s[j]);
    }
    double denom = 0.0;
    for (int64_t j = 0; j < len; ++j) {
        s[j] = std::exp(s[j] - maxv);
        denom += s[j];
    }
    const float inv = static_cast<float>(1.0 / std::max(denom, 1e-30));
    for (int64_t j = 0; j < len; ++j)
        s[j] *= inv;
}

/** One [2 * kv_dim] K+V token row: gaussians at a per-block
 *  magnitude, with zeros, -0, values that land on the E4M3 subnormal
 *  grid or flush to zero, exact block maxima (the saturating top code
 *  ±448) and, every few tokens, an all-zero or single-spike block. */
std::vector<float>
walkerTestRow(Rng &rng, int64_t kv_dim, int64_t hd, int64_t t)
{
    std::vector<float> row(static_cast<size_t>(2 * kv_dim));
    for (int64_t b = 0; b < 2 * kv_dim / hd; ++b) {
        float *blk = row.data() + b * hd;
        const float mag =
            std::ldexp(1.0f, static_cast<int>(rng.nextBelow(12)) - 6);
        for (int64_t d = 0; d < hd; ++d)
            blk[d] = static_cast<float>(rng.nextGaussian()) * mag;
        const int64_t kind = (t + b) % 5;
        if (kind == 0) {
            std::fill(blk, blk + hd, 0.0f);
        } else if (kind == 1) {
            std::fill(blk, blk + hd, -0.0f);
            blk[(t + b) % hd] = mag; // one spike: the rest code as -0
        } else {
            blk[0] = 4.0f * mag;      // the block max -> code 0x7e
            blk[hd - 1] = -4.0f * mag; // -> 0xfe
            if (hd > 2) {
                blk[1] = 4.0f * mag * 1e-5f; // E4M3 subnormal range
                blk[hd - 2] = -0.0f;
            }
            if (hd > 4) {
                blk[2] = 4.0f * mag * 1e-7f; // flushes to +0
                // The largest subnormal, 7 * 2^-9 after scaling: 0x87.
                blk[3] = -4.0f * mag * (7.0f / 512.0f / 448.0f);
            }
        }
    }
    return row;
}

/**
 * One walker case on the active backend: a 2-kv-head cache of @p len
 * tokens in @p pt-token pages, interleaved with a second sequence so
 * the walked pages are not contiguous; for each kv head, the walker's
 * probabilities and context rows must memcmp-equal gathering the
 * rows, a one-row gemmNT, the decode softmax and a one-row gemmNN.
 */
void
expectWalkerMatchesGemms(serve::KvCacheMode mode, int64_t hd,
                         int64_t group, int64_t pt, int64_t len)
{
    const int64_t n_kv = 2;
    const int64_t kv_dim = n_kv * hd;
    serve::KvCacheConfig kc;
    kc.n_layers = 1;
    kc.n_kv_heads = n_kv;
    kc.head_dim = hd;
    kc.page_tokens = pt;
    kc.max_seqs = 2;
    kc.max_seq_tokens = len;
    kc.max_pages = 2 * ((len + pt - 1) / pt);
    kc.mode = mode;
    serve::KvCache cache(kc);
    cache.beginSequence(0);
    cache.beginSequence(1);
    Rng rng(static_cast<uint64_t>(hd * 1000 + group * 100 + pt * 10 + len));
    for (int64_t t = 0; t < len; ++t) {
        const auto mine = walkerTestRow(rng, kv_dim, hd, t);
        const auto other = walkerTestRow(rng, kv_dim, hd, t + 1);
        cache.append(0, 0, other.data(), other.data() + kv_dim);
        cache.append(1, 0, mine.data(), mine.data() + kv_dim);
    }
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    const simd::KernelTable &kt = simd::activeKernels();
    for (int64_t kvh = 0; kvh < n_kv; ++kvh) {
        SCOPED_TRACE(kvh);
        std::vector<float> q(static_cast<size_t>(group * hd));
        for (float &x : q)
            x = static_cast<float>(rng.nextGaussian());
        q[0] = 0.0f;
        q[q.size() - 1] = -0.0f;

        std::vector<float> kb(static_cast<size_t>(len * hd));
        std::vector<float> vb(kb.size());
        cache.gatherHeadK(1, 0, kvh, kb.data());
        cache.gatherHeadV(1, 0, kvh, vb.data());
        std::vector<float> ref_p(static_cast<size_t>(group * len));
        std::vector<float> ref_ctx(static_cast<size_t>(group * hd));
        for (int64_t g = 0; g < group; ++g) {
            float *sc = ref_p.data() + g * len;
            gemmNT(q.data() + g * hd, kb.data(), sc, 1, len, hd);
            referenceDecodeSoftmax(sc, len, scale);
            gemmNN(sc, vb.data(), ref_ctx.data() + g * hd, 1, hd, len);
        }

        const simd::KvHeadView view = cache.headView(1, 0, kvh);
        std::vector<float> scratch(
            static_cast<size_t>(simd::kvAttendScratch(view, group)));
        std::vector<float> ctx(ref_ctx.size(), 1.0f);
        kt.kvAttend(view, q.data(), group, scale, scratch.data(),
                    ctx.data());
        EXPECT_EQ(std::memcmp(scratch.data(), ref_p.data(),
                              ref_p.size() * sizeof(float)),
                  0)
            << "probabilities";
        EXPECT_EQ(std::memcmp(ctx.data(), ref_ctx.data(),
                              ctx.size() * sizeof(float)),
                  0)
            << "context";
    }
}

TEST(KvAttend, BitIdenticalToGatherThenGemm)
{
    // The page walker must reproduce, bit for bit on each backend, the
    // decode attention it replaced, for any head_dim (vector chunks and
    // tails), GQA group, page size and length around page boundaries.
    BackendGuard backend_guard;
    std::vector<const char *> backends = {"scalar"};
    if (simd::cpuSupportsAvx2())
        backends.push_back("avx2");
    for (const char *backend : backends) {
        ASSERT_TRUE(simd::setBackendByName(backend));
        for (serve::KvCacheMode mode :
             {serve::KvCacheMode::Fp8, serve::KvCacheMode::Fp32}) {
            for (int64_t hd : {2, 4, 8, 10, 16})
                for (int64_t group : {1, 2, 4})
                    for (int64_t pt : {1, 3, 16})
                        for (int64_t len : {int64_t{1}, pt - 1, pt, pt + 1,
                                            5 * pt + 3}) {
                            if (len < 1)
                                continue;
                            SCOPED_TRACE(std::string(backend) + " " +
                                         serve::kvCacheModeName(mode) +
                                         " hd " + std::to_string(hd) +
                                         " group " + std::to_string(group) +
                                         " pt " + std::to_string(pt) +
                                         " len " + std::to_string(len));
                            expectWalkerMatchesGemms(mode, hd, group, pt,
                                                     len);
                        }
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
    for (size_t s = 0; s < rows.size(); ++s) {
        const auto full = fullSeqLastRow(ref, ctx);
        for (size_t v = 0; v < full.size(); ++v)
            max_diff = std::max(max_diff, std::fabs(rows[s][v] - full[v]));
        ctx.push_back(generated[s]);
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
    std::vector<float> logits(static_cast<size_t>(2 * cfg.vocab_size));

    // Prefill both sequences (cache pages for the prompts allocate
    // lazily from the preallocated pool — no heap).
    const auto prompt = someTokens(5, cfg.vocab_size, 72);
    for (size_t i = 0; i < sids.size(); ++i) {
        const KvCacheHandle one{&cache, &sids[i], 1};
        model.inferStep(prompt.data(), 5, one, logits.data());
    }

    const KvCacheHandle h{&cache, sids.data(), 2};
    std::vector<int32_t> toks = {3, 4};

    // Warm up arenas and the per-layer weight-pack caches.
    for (int i = 0; i < 3; ++i)
        model.inferStep(toks.data(), 2, h, logits.data());

    const int64_t allocs = allocDelta(
        [&] { model.inferStep(toks.data(), 2, h, logits.data()); });
    EXPECT_EQ(allocs, 0);
}

TEST(ServeDecode, WarmedPrefillPerformsZeroHeapAllocations)
{
    // A prompt step into a reused slot: the arenas and weight-pack
    // caches are warm from earlier prompts, the slot's page tables
    // keep their capacity, and pages come from the preallocated pool.
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1); // inline path: no pool Jobs

    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 73);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));
    const auto prompt = someTokens(9, cfg.vocab_size, 74);
    std::vector<float> logits(static_cast<size_t>(cfg.vocab_size));

    for (serve::KvCacheMode mode :
         {serve::KvCacheMode::Fp8, serve::KvCacheMode::Fp32}) {
        SCOPED_TRACE(serve::kvCacheModeName(mode));
        serve::KvCache cache(cacheConfigFor(cfg, mode, /*max_seqs=*/1));
        const int64_t sid = 0;
        const KvCacheHandle h{&cache, &sid, 1};
        auto prefill = [&] {
            cache.beginSequence(sid);
            model.inferStep(prompt.data(), 9, h, logits.data());
            cache.endSequence(sid);
        };
        for (int i = 0; i < 3; ++i)
            prefill();
        EXPECT_EQ(allocDelta(prefill), 0);
    }
}

// --------------------------------------------------- backward guard

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
    const auto prompt = someTokens(4, cfg.vocab_size, 82);
    std::vector<float> logits(static_cast<size_t>(cfg.vocab_size));
    const KvCacheHandle h{&cache, &sid, 1};
    model.inferStep(prompt.data(), 4, h, logits.data());

    // An inference step saves nothing for backward(): backprop after
    // one is a hard error in the first layer it reaches.
    Tensor dlogits(4, cfg.vocab_size);
    dlogits.zero();
    EXPECT_DEATH(model.backward(dlogits), "backward before forward");
}

} // namespace
} // namespace snip
