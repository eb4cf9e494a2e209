/**
 * @file
 * serve_fp8kv: tinyllamaSim weights at uniform FP8, FP8 paged KV
 * cache, continuous batching over 8 slots, fed a closed burst: every
 * request is due at time 0, with prompts of 16-96 tokens and
 * generations of 16-64 tokens. max_seq covers the longest request, so
 * nothing is structurally rejected.
 *
 * The traffic shape is the same in every run: lengths spread evenly
 * over their ranges, in an order drawn once from a fixed shape seed.
 * The run's seed draws the prompt tokens, and so the generated tokens
 * the correctness checks compare. With every request due at once, the
 * engine admits, batches and retires them by token counts alone, so the
 * schedule of prefills and decode steps is the same in every episode
 * and only the time each step takes varies. (An open-loop stream on the
 * engine's wall clock lets host noise change which requests share a
 * decode step, and its per-token latency spread 40-55% across runs.)
 *
 * A run is a series of identical episodes: a fresh Engine drains the
 * same request stream. Greedy generation depends only on weights and
 * prompt, so every episode must produce the same tokens per request.
 * Latencies are on the engine's logical clock, from each request's
 * due time. Statistics are pooled over the least-disturbed tenth of
 * the episodes (lowest engine busy seconds).
 */
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common.h"
#include "nn/model.h"
#include "quant/quantizer.h"
#include "serve/engine.h"
#include "train/presets.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace snip {
namespace perfbench {
namespace {

constexpr int64_t kConcurrency = 8;
constexpr int64_t kRequests = 24;
constexpr int64_t kMinPrompt = 16, kMaxPrompt = 96;
constexpr int64_t kMinNew = 16, kMaxNew = 64;
constexpr int64_t kPageTokens = 16;
constexpr int kSetupReps = 7;
constexpr int64_t kWarmRequests = 8;
/** Fixes the order of lengths in the stream. */
constexpr uint64_t kShapeSeed = 0x5A9E;

ModelConfig
serveModel()
{
    ModelConfig m = tinyllamaSim();
    m.max_seq = kMaxPrompt + kMaxNew;
    return m;
}

serve::EngineConfig
engineConfig()
{
    serve::EngineConfig ec;
    ec.max_concurrency = kConcurrency;
    ec.kv_mode = serve::KvCacheMode::Fp8;
    ec.kv_page_tokens = kPageTokens;
    return ec;
}

serve::SyntheticStreamConfig
warmConfig(const LlamaModel &model, uint64_t seed)
{
    serve::SyntheticStreamConfig sc;
    sc.n_requests = kWarmRequests;
    sc.seed = seed;
    sc.vocab = model.config().vocab_size;
    sc.min_prompt = kMinPrompt;
    sc.max_prompt = kMaxPrompt;
    sc.min_new = kMinNew;
    sc.max_new = kMaxNew;
    sc.arrival_rate = 0.0; // closed burst
    return sc;
}

/** Model construction, FP8 scheme, and one closed-burst warm-up drain
 *  (arenas, packed-weight caches). */
std::unique_ptr<LlamaModel>
setUp(uint64_t seed)
{
    auto model = std::make_unique<LlamaModel>(serveModel(), 42);
    model->setScheme(PrecisionScheme::uniform(
        static_cast<size_t>(model->registry().numLinear()),
        Precision::FP8));
    serve::Engine warm(*model, engineConfig());
    serve::RequestQueue queue = serve::RequestQueue::synthetic(
        warmConfig(*model, seed ^ 0x5A5Aull));
    warm.run(queue);
    return model;
}

/** Outputs and timings of one drain of the request stream. */
struct Episode
{
    std::vector<serve::RequestResult> results;
    serve::ServeStats stats;
    std::vector<int64_t> max_new; ///< per request id
    CounterDelta counters;        ///< traced episodes only

    /** Engine seconds spent computing (prefill + decode). */
    double
    busy() const
    {
        return stats.prefill_s + stats.decode_s;
    }

    /** CRC over (id, tokens) of every request. */
    uint32_t
    crc() const
    {
        uint32_t c = 0;
        for (const serve::RequestResult &r : results) {
            c = crc32(&r.id, sizeof(r.id), c);
            c = crc32(r.tokens.data(),
                      r.tokens.size() * sizeof(int32_t), c);
        }
        return c;
    }
};

using Picked = std::vector<const Episode *>;

/** The least-disturbed tenth of @p eps by engine busy seconds. */
Picked
pick(const std::vector<Episode> &eps)
{
    std::vector<double> busy;
    for (const Episode &e : eps)
        busy.push_back(e.busy());
    Picked out;
    for (size_t i : leastDisturbed(busy))
        out.push_back(&eps[i]);
    return out;
}

/** Evenly spaced integers covering [lo, hi], one per request, in an
 *  order shuffled by @p rng. */
std::vector<int64_t>
spreadLengths(int64_t lo, int64_t hi, Rng &rng)
{
    std::vector<int64_t> v(static_cast<size_t>(kRequests));
    for (int64_t i = 0; i < kRequests; ++i)
        v[static_cast<size_t>(i)] = lo + (hi - lo) * i / (kRequests - 1);
    for (size_t i = v.size(); i-- > 1;)
        std::swap(v[i], v[static_cast<size_t>(rng.nextBelow(i + 1))]);
    return v;
}

/** The run's request stream (see the file comment). */
serve::RequestQueue
makeStream(const LlamaModel &model, uint64_t seed)
{
    Rng shape(kShapeSeed);
    const std::vector<int64_t> prompt =
        spreadLengths(kMinPrompt, kMaxPrompt, shape);
    const std::vector<int64_t> gen = spreadLengths(kMinNew, kMaxNew, shape);
    Rng rng(seed);
    serve::RequestQueue stream;
    for (int64_t i = 0; i < kRequests; ++i) {
        serve::ServeRequest r;
        r.id = i;
        r.arrival_s = 0.0;
        r.prompt.resize(static_cast<size_t>(prompt[static_cast<size_t>(i)]));
        for (int32_t &t : r.prompt)
            t = static_cast<int32_t>(rng.nextBelow(
                static_cast<uint64_t>(model.config().vocab_size)));
        r.max_new_tokens = gen[static_cast<size_t>(i)];
        stream.push(std::move(r));
    }
    return stream;
}

Episode
runEpisode(LlamaModel &model, const serve::RequestQueue &stream)
{
    Episode e;
    serve::RequestQueue queue = stream;
    for (serve::RequestQueue copy = stream; !copy.empty();)
        e.max_new.push_back(copy.pop().max_new_tokens);
    serve::Engine engine(model, engineConfig());
    e.results = engine.run(queue);
    e.stats = engine.stats();
    return e;
}

/** Every request served in full; identical tokens in every episode. */
void
checkEpisodes(Outcome &out, const std::vector<Episode> &eps)
{
    const uint32_t crc = eps.front().crc();
    for (const Episode &e : eps) {
        for (const serve::RequestResult &r : e.results) {
            ++out.attempted;
            if (r.status == serve::RequestStatus::Ok &&
                static_cast<int64_t>(r.tokens.size()) ==
                    e.max_new[static_cast<size_t>(r.id)])
                continue;
            ++out.failed;
            out.check(false,
                      strformat("request %lld ended %s after %zu tokens",
                                static_cast<long long>(r.id),
                                serve::requestStatusName(r.status),
                                r.tokens.size()));
        }
        out.check(e.crc() == crc,
                  strformat("episode token CRC %08x != first %08x",
                            e.crc(), crc));
    }
    out.output_crc = crc;
}

Outcome
endToEnd(const RunOptions &opts)
{
    Outcome out;
    std::vector<double> setup_s;
    std::unique_ptr<LlamaModel> model;
    for (int r = 0; r < kSetupReps; ++r) {
        model.reset();
        const auto t0 = Clock::now();
        model = setUp(opts.seed);
        setup_s.push_back(secondsSince(t0));
    }

    const serve::RequestQueue stream = makeStream(*model, opts.seed);
    std::vector<Episode> eps;
    const auto t0 = Clock::now();
    while (eps.size() < 4 || secondsSince(t0) < opts.seconds)
        eps.push_back(runEpisode(*model, stream));
    checkEpisodes(out, eps);

    const Picked sel = pick(eps);
    std::vector<double> ttft, tpot, itl;
    double busy = 0.0, tokens = 0.0;
    for (const Episode *e : sel) {
        for (const serve::RequestResult &r : e->results) {
            ttft.push_back(r.ttft_s);
            // Time per output token after the first: the request's mean
            // inter-token gap, prefills of other requests included.
            double gaps = 0.0;
            for (double g : r.itl_s)
                gaps += g;
            tpot.push_back(gaps / static_cast<double>(r.itl_s.size()));
            itl.insert(itl.end(), r.itl_s.begin(), r.itl_s.end());
        }
        busy += e->busy();
        tokens += static_cast<double>(e->stats.decode_tokens);
    }
    out.add("setup_s", quantile(setup_s, 0.5), "s");
    out.add("tokens_per_s", tokens / busy, "tok/s");
    out.add("latency_ms_p50", quantile(tpot, 0.5) * 1e3, "ms");
    out.add("latency_ms_tail", quantile(tpot, 0.9) * 1e3, "ms");
    out.add("first_ms_p50", quantile(ttft, 0.5) * 1e3, "ms");
    out.add("peak_rss_mb", peakRssMb(), "MiB");
    std::printf("serve: %zu episodes x %lld requests (closed burst "
                "onto %lld slots); pooled over the %zu least disturbed: %zu "
                "requests (latency = time per output token, tail = p90); "
                "ttft p90 %.3f ms; inter-token gap p50 %.3f ms, p99 "
                "%.3f ms (n=%zu)\n",
                eps.size(), static_cast<long long>(kRequests),
                static_cast<long long>(kConcurrency), sel.size(),
                tpot.size(),
                quantile(ttft, 0.9) * 1e3, quantile(itl, 0.5) * 1e3,
                quantile(itl, 0.99) * 1e3, itl.size());
    return out;
}

/** ns per row of KvCache::append and of gatherHeadK on the serving
 *  geometry (FP8 storage, one sequence of max_seq tokens). */
void
kvRowCosts(const LlamaModel &model, uint64_t seed, double *append_ns,
           double *gather_ns)
{
    const ModelConfig &mc = model.config();
    serve::KvCacheConfig kc;
    kc.n_layers = mc.n_blocks;
    kc.n_kv_heads = mc.n_kv_heads;
    kc.head_dim = mc.headDim();
    kc.page_tokens = kPageTokens;
    kc.max_seqs = 1;
    kc.max_seq_tokens = mc.max_seq;
    kc.max_pages = mc.n_blocks * (mc.max_seq / kPageTokens + 1);
    kc.mode = serve::KvCacheMode::Fp8;
    serve::KvCache cache(kc);

    Rng rng(seed);
    const Tensor rows = Tensor::randn({mc.max_seq, 2 * kc.kvDim()}, rng);
    auto fill = [&] {
        cache.beginSequence(0);
        for (int64_t t = 0; t < mc.max_seq; ++t) {
            const float *k = rows.data() + t * 2 * kc.kvDim();
            for (int64_t l = 0; l < mc.n_blocks; ++l)
                cache.append(0, l, k, k + kc.kvDim());
        }
    };
    *append_ns = nsPerItem(
        [&] {
            fill();
            cache.endSequence(0);
        },
        static_cast<double>(mc.max_seq * mc.n_blocks), 5, 0.05);

    fill();
    std::vector<float> dst(static_cast<size_t>(mc.max_seq * kc.head_dim));
    *gather_ns = nsPerItem(
        [&] {
            for (int64_t l = 0; l < mc.n_blocks; ++l)
                for (int64_t h = 0; h < mc.n_kv_heads; ++h)
                    cache.gatherHeadK(0, l, h, dst.data());
        },
        static_cast<double>(mc.max_seq * mc.n_blocks * mc.n_kv_heads), 5,
        0.05);
    cache.endSequence(0);
}

void
setTelemetry(bool on)
{
    telemetry::Config tc;
    tc.enabled = on;
    telemetry::configure(tc);
}

Outcome
traced(const RunOptions &opts)
{
    Outcome out;
    std::unique_ptr<LlamaModel> model = setUp(opts.seed);

    // Untraced reference drains alternate with traced ones (telemetry
    // on, Engine::run timed from outside).
    const serve::RequestQueue stream = makeStream(*model, opts.seed);
    SpanLog log;
    std::vector<Episode> ref, replay;
    const auto t0 = Clock::now();
    while (ref.size() < 4 || secondsSince(t0) < opts.seconds * 0.8) {
        setTelemetry(false);
        ref.push_back(runEpisode(*model, stream));
        setTelemetry(true);
        const telemetry::Snapshot before = telemetry::snapshot();
        const auto ts = Clock::now();
        Episode e = runEpisode(*model, stream);
        log.record("serve.run", ts, Clock::now(),
                   static_cast<int64_t>(replay.size()));
        e.counters.accumulate(before, telemetry::snapshot());
        replay.push_back(std::move(e));
    }
    setTelemetry(false);
    checkEpisodes(out, ref);
    for (const Episode &e : replay) {
        out.check(e.crc() == out.output_crc,
                  strformat("traced episode token CRC %08x != untraced "
                            "%08x",
                            e.crc(), out.output_crc));
        out.attempted += static_cast<int64_t>(e.results.size());
    }

    CounterDelta counters;
    double requests = 0.0, prefill_s = 0.0, decode_s = 0.0;
    double steps = 0.0, decode_rows = 0.0, peak_pages = 0.0;
    for (const Episode *e : pick(replay)) {
        const serve::ServeStats &s = e->stats;
        counters.add(e->counters);
        requests += static_cast<double>(s.requests);
        prefill_s += s.prefill_s;
        decode_s += s.decode_s;
        steps += static_cast<double>(s.decode_steps);
        // decode_tokens counts each prefill's first token too.
        decode_rows += static_cast<double>(s.decode_tokens - s.requests);
        peak_pages = std::max(peak_pages,
                              static_cast<double>(s.peak_kv_pages));
    }
    out.add("serve.prefill_ms_per_req", prefill_s * 1e3 / requests, "ms");
    out.add("serve.decode_step_ms", decode_s * 1e3 / steps, "ms");
    out.add("serve.decode_width_mean", decode_rows / steps, "seqs");
    out.add("serve.kv_pages_peak", peak_pages, "pages");
    addCounterMetrics(out, counters, requests, opts.threads);

    double append_ns = 0.0, gather_ns = 0.0;
    kvRowCosts(*model, opts.seed, &append_ns, &gather_ns);
    out.add("serve.kv_append_ns_per_row", append_ns, "ns");
    out.add("serve.kv_gather_ns_per_row", gather_ns, "ns");

    // Nearest rounding on the decode activation shape.
    Rng rng(opts.seed);
    const Tensor act = Tensor::randn(
        {kConcurrency, model->config().ffn_hidden}, rng);
    FakeQuantizer q(opts.seed);
    const QuantConfig rtn =
        rolePolicy(Precision::FP8, TensorRole::Activation);
    double sink = 0.0;
    out.add("quant.rtn_ns_per_elem",
            nsPerItem([&] { sink += q.quantize(act, rtn).data()[0]; },
                      static_cast<double>(act.numel()), 5, 0.05),
            "ns");
    out.check(std::isfinite(sink), "non-finite quantized activation");

    if (!opts.span_path.empty() && !log.writeChromeJson(opts.span_path))
        out.check(false, "cannot write span log " + opts.span_path);
    return out;
}

} // namespace

Outcome
runServe(const RunOptions &opts)
{
    return opts.trace ? traced(opts) : endToEnd(opts);
}

} // namespace perfbench
} // namespace snip
