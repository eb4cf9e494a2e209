/**
 * @file
 * Serving demo: the quantized inference runtime end to end.
 *
 * Streams N synthetic requests through the continuous-batching engine
 * (prefill and decode steps over the paged FP8 KV cache), then verifies
 * the inference step against the full-sequence training forward:
 *
 *   - FP32-cache mode: prefill and decode logits are BIT-IDENTICAL to
 *     the last row of a full-sequence forward, at 1, 2 and 8 threads.
 *   - FP8-cache mode: logits track the FP32 trajectory within the
 *     documented tolerance (|err| <= 8% of the row max + 0.02).
 *
 * Exits 0 only if every check passes.
 *
 * With --overload the demo instead runs the robustness smoke: a KV
 * page pool sized far below the offered load plus a stream containing
 * structurally impossible requests and tight deadlines. Passing means
 * every request still got a result (rejections and expiries carry
 * their status, nothing hangs), the engine drained, and the page
 * accounting returned to exactly zero.
 *
 *   ./serve_demo [--requests=12] [--concurrency=4] [--seed=7]
 *                [--overload]
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "nn/model.h"
#include "runtime/env_config.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "train/presets.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"

using namespace snip;

namespace {

std::vector<int32_t>
somePrompt(int64_t n, int64_t vocab, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int32_t> t;
    for (int64_t i = 0; i < n; ++i)
        t.push_back(static_cast<int32_t>(
            rng.nextBelow(static_cast<uint64_t>(vocab))));
    return t;
}

serve::KvCacheConfig
cacheConfigFor(const ModelConfig &m, serve::KvCacheMode mode)
{
    serve::KvCacheConfig kc;
    kc.n_layers = m.n_blocks;
    kc.n_kv_heads = m.n_kv_heads;
    kc.head_dim = m.headDim();
    kc.page_tokens = 4;
    kc.max_seqs = 1;
    kc.max_seq_tokens = m.max_seq;
    kc.max_pages =
        m.n_blocks * ((m.max_seq + kc.page_tokens - 1) / kc.page_tokens);
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

/** Prefill @p prompt then greedy-decode @p steps tokens, returning the
 *  logits of every step (the prompt's first; row s picked generated
 *  token s). Teacher-forced when @p forced is given. */
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

/** Per-request latency table: the engine-reported numbers a span
 *  trace (SNIP_TRACE=json:...) should be eyeballed against. */
void
printRequestTable(const std::vector<serve::RequestResult> &results)
{
    TablePrinter table(
        {"request", "tokens", "ttft_ms", "itl_mean_ms", "itl_max_ms"});
    for (const serve::RequestResult &r : results) {
        double itl_sum = 0.0, itl_max = 0.0;
        for (double itl : r.itl_s) {
            itl_sum += itl;
            itl_max = std::max(itl_max, itl);
        }
        const double itl_mean =
            r.itl_s.empty()
                ? 0.0
                : itl_sum / static_cast<double>(r.itl_s.size());
        table.newRow();
        table.cell(r.id);
        table.cell(static_cast<int64_t>(r.tokens.size()));
        table.cell(r.ttft_s * 1e3, 3);
        table.cell(itl_mean * 1e3, 3);
        table.cell(itl_max * 1e3, 3);
    }
    table.print();
}

std::vector<float>
fullSeqLastRow(LlamaModel &model, const std::vector<int32_t> &tokens)
{
    const int64_t len = static_cast<int64_t>(tokens.size());
    const int64_t vocab = model.config().vocab_size;
    Tensor logits = model.forward(tokens, 1, len);
    const float *row = logits.data() + (len - 1) * vocab;
    return std::vector<float>(row, row + vocab);
}

bool
checkBitIdentity(LlamaModel &model, uint64_t seed)
{
    const ModelConfig &cfg = model.config();
    const auto prompt = somePrompt(7, cfg.vocab_size, seed);
    const int64_t steps = 8;
    bool ok = true;
    for (int threads : {1, 2, 8}) {
        runtime::setGlobalThreadCount(threads);
        std::vector<int32_t> generated;
        const auto rows = decodeTrajectory(
            model, prompt, steps, serve::KvCacheMode::Fp32, &generated);
        std::vector<int32_t> ctx = prompt;
        int64_t mismatches = 0;
        for (size_t s = 0; s < rows.size(); ++s) {
            const auto ref = fullSeqLastRow(model, ctx);
            for (size_t v = 0; v < ref.size(); ++v)
                if (rows[s][v] != ref[v])
                    ++mismatches;
            ctx.push_back(generated[s]);
        }
        std::printf("  fp32 cache, %d thread(s): %s\n", threads,
                    mismatches == 0 ? "bit-identical"
                                    : "MISMATCH vs full sequence");
        ok = ok && mismatches == 0;
    }
    return ok;
}

bool
checkFp8Tolerance(LlamaModel &model, uint64_t seed)
{
    runtime::setGlobalThreadCount(1);
    const ModelConfig &cfg = model.config();
    const auto prompt = somePrompt(8, cfg.vocab_size, seed);
    const int64_t steps = 8;

    std::vector<int32_t> fp32_tokens;
    const auto ref = decodeTrajectory(
        model, prompt, steps, serve::KvCacheMode::Fp32, &fp32_tokens);
    const auto got =
        decodeTrajectory(model, prompt, steps, serve::KvCacheMode::Fp8,
                         nullptr, &fp32_tokens);

    float worst_rel = 0.0f;
    bool ok = true;
    for (size_t s = 0; s < ref.size(); ++s) {
        float max_abs = 0.0f;
        for (float r : ref[s])
            max_abs = std::max(max_abs, std::fabs(r));
        const float tol = 0.08f * max_abs + 0.02f;
        for (size_t v = 0; v < ref[s].size(); ++v) {
            const float err = std::fabs(got[s][v] - ref[s][v]);
            worst_rel = std::max(worst_rel, err / tol);
            ok = ok && err <= tol;
        }
    }
    std::printf("  fp8 cache vs fp32: worst error %.0f%% of tolerance "
                "(8%% of row max + 0.02) — %s\n",
                worst_rel * 100.0f, ok ? "within" : "EXCEEDED");
    return ok;
}

/**
 * Overload smoke: a pool far too small for the offered stream, spiked
 * with never-fit requests and tight deadlines. The engine must give
 * every request a result, never deadlock, and account every KV page
 * back to the pool.
 */
int
runOverloadSmoke(LlamaModel &model, int64_t requests, uint64_t seed)
{
    const ModelConfig &cfg = model.config();

    serve::SyntheticStreamConfig sc;
    sc.n_requests = requests;
    sc.seed = seed;
    sc.vocab = cfg.vocab_size;
    sc.min_prompt = 4;
    sc.max_prompt = 16;
    sc.min_new = 4;
    sc.max_new = 12;
    sc.arrival_rate = 500.0; // slam the queue
    sc.deadline_s = 0.05;    // tight per-request deadline
    auto queue = serve::RequestQueue::synthetic(sc);

    // Spike in structurally impossible traffic: an empty prompt and a
    // request whose worst case exceeds max_seq.
    serve::ServeRequest empty;
    empty.id = requests;
    empty.arrival_s = 0.0;
    queue.push(empty);
    serve::ServeRequest huge;
    huge.id = requests + 1;
    huge.arrival_s = 0.0;
    huge.prompt = somePrompt(4, cfg.vocab_size, seed + 3);
    huge.max_new_tokens = cfg.max_seq; // 4 + max_seq > max_seq
    queue.push(huge);
    const int64_t total = requests + 2;

    serve::EngineConfig ec;
    ec.max_concurrency = 4;
    // A pool that covers barely one worst-case sequence: admission
    // overcommit is guaranteed, so preemption must kick in.
    ec.kv_page_tokens = 4;
    ec.max_pages =
        cfg.n_blocks * ((cfg.max_seq + 3) / 4) + cfg.n_blocks;
    serve::Engine engine(model, ec);
    auto results = engine.run(queue);

    const serve::ServeStats &s = engine.stats();
    std::printf("overload smoke: %zu results for %lld requests — "
                "%lld ok, %lld rejected, %lld preempted, "
                "%lld expired (%lld admission retries)\n",
                results.size(), static_cast<long long>(total),
                static_cast<long long>(s.requests - s.rejected -
                                       s.preempted - s.expired),
                static_cast<long long>(s.rejected),
                static_cast<long long>(s.preempted),
                static_cast<long long>(s.expired),
                static_cast<long long>(s.admission_retries));
    for (const serve::RequestResult &r : results)
        if (r.status != serve::RequestStatus::Ok)
            std::printf("  request %lld: %s\n",
                        static_cast<long long>(r.id),
                        serve::requestStatusName(r.status));

    bool ok = true;
    if (results.size() != static_cast<size_t>(total)) {
        std::printf("FAIL: %zu results, expected %lld\n",
                    results.size(), static_cast<long long>(total));
        ok = false;
    }
    if (engine.kvCache().pagesInUse() != 0) {
        std::printf("FAIL: %lld KV pages leaked\n",
                    static_cast<long long>(
                        engine.kvCache().pagesInUse()));
        ok = false;
    }
    if (s.rejected == 0) {
        std::printf("FAIL: the never-fit spikes were not rejected\n");
        ok = false;
    }
    std::printf("%s\n", ok ? "OK" : "FAIL");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const int64_t requests = args.getInt("requests", 12);
    const int64_t concurrency = args.getInt("concurrency", 4);
    const uint64_t seed =
        static_cast<uint64_t>(args.getInt("seed", 7));

    std::printf("%s", runtime::envConfig().dump().c_str());

    ModelConfig cfg = tinyTestModel();
    LlamaModel model(cfg, seed);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));

    if (args.has("overload"))
        return runOverloadSmoke(model, requests, seed);

    // 1. Stream synthetic requests through the continuous batcher.
    serve::SyntheticStreamConfig sc;
    sc.n_requests = requests;
    sc.seed = seed;
    sc.vocab = cfg.vocab_size;
    sc.min_prompt = 4;
    sc.max_prompt = 16;
    sc.min_new = 4;
    sc.max_new = 12;
    sc.arrival_rate = 200.0; // open loop: ~200 req/s

    serve::EngineConfig ec;
    ec.max_concurrency = concurrency;
    serve::Engine engine(model, ec);
    auto queue = serve::RequestQueue::synthetic(sc);
    auto results = engine.run(queue);

    const serve::ServeStats &s = engine.stats();
    const serve::KvCacheConfig &kc = engine.kvCache().config();
    std::printf("served %lld requests (%s KV cache, %lld-token pages): "
                "%.0f tok/s, %lld coalesced decode steps, "
                "peak %lld KV pages\n",
                static_cast<long long>(s.requests),
                serve::kvCacheModeName(kc.mode),
                static_cast<long long>(kc.page_tokens),
                s.tokensPerSecond(),
                static_cast<long long>(s.decode_steps),
                static_cast<long long>(s.peak_kv_pages));
    std::printf("  ttft p50 %.3f ms  p99 %.3f ms   itl p50 %.3f ms  "
                "p99 %.3f ms\n",
                s.p50_ttft_s * 1e3, s.p99_ttft_s * 1e3,
                s.p50_itl_s * 1e3, s.p99_itl_s * 1e3);
    printRequestTable(results);
    if (results.size() != static_cast<size_t>(requests)) {
        std::printf("FAIL: expected %lld results, got %zu\n",
                    static_cast<long long>(requests), results.size());
        return 1;
    }
    const int64_t leaked = engine.kvCache().pagesInUse();
    if (leaked != 0) {
        std::printf("FAIL: %lld KV pages leaked after drain\n",
                    static_cast<long long>(leaked));
        return 1;
    }

    // 2. Inference-step-vs-full-sequence verification.
    std::printf("verifying prefill and decode against full-sequence "
                "forward:\n");
    const bool bit_ok = checkBitIdentity(model, seed + 1);
    const bool fp8_ok = checkFp8Tolerance(model, seed + 2);
    runtime::setGlobalThreadCount(0); // back to default sizing

    if (!bit_ok || !fp8_ok) {
        std::printf("FAIL\n");
        return 1;
    }
    std::printf("OK\n");
    return 0;
}
