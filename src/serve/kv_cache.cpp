#include "serve/kv_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "quant/codec.h"
#include "quant/format.h"
#include "quant/scaling.h"
#include "runtime/env_config.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace snip {
namespace serve {

namespace {

/**
 * Every positive FP8-E4M3 magnitude in ascending order, index 0 = 0.
 * quantizeNearest() lands exactly on this grid, so encoding is an
 * exact binary search and a byte code decodes to exactly the float
 * the fake quantizer would have produced.
 */
const std::vector<float> &
e4m3Magnitudes()
{
    static const std::vector<float> mags = [] {
        const FloatFormat &fmt = fp8E4m3();
        const int m = fmt.mantissa_bits;
        const int e_top = (1 << fmt.exponent_bits) - 1;
        std::vector<float> out;
        out.push_back(0.0f);
        for (int e = 0; e <= e_top; ++e) {
            for (int frac = 0; frac < (1 << m); ++frac) {
                if (e == 0 && frac == 0)
                    continue; // zero already present
                if (e == e_top) {
                    if (!fmt.finite_only)
                        break; // IEEE-like: Inf/NaN codes
                    if (fmt.has_nan && frac == (1 << m) - 1)
                        continue; // the single NaN pattern
                }
                const double mant =
                    static_cast<double>(frac) /
                    static_cast<double>(1 << m);
                const double val =
                    (e == 0)
                        ? std::ldexp(mant, 1 - fmt.bias)
                        : std::ldexp(1.0 + mant, e - fmt.bias);
                out.push_back(static_cast<float>(val));
            }
        }
        std::sort(out.begin(), out.end());
        SNIP_ASSERT(out.size() ==
                        static_cast<size_t>(fmt.magnitudeCount() + 1),
                    "e4m3 magnitude table size mismatch");
        SNIP_ASSERT(out.size() <= 128, "magnitude index must fit 7 bits");
        return out;
    }();
    return mags;
}

/** Byte code for one already-grid-snapped value. */
uint8_t
encodeE4m3(float q)
{
    const std::vector<float> &mags = e4m3Magnitudes();
    const float mag = std::fabs(q);
    const auto it =
        std::lower_bound(mags.begin(), mags.end(), mag);
    SNIP_ASSERT(it != mags.end() && *it == mag,
                "value ", q, " is not on the e4m3 grid");
    const uint8_t idx =
        static_cast<uint8_t>(it - mags.begin());
    return std::signbit(q) ? static_cast<uint8_t>(idx | 0x80) : idx;
}

} // namespace

const char *
kvCacheModeName(KvCacheMode mode)
{
    return mode == KvCacheMode::Fp8 ? "fp8" : "fp32";
}

bool
parseKvCacheMode(const char *spec, KvCacheMode *out)
{
    if (spec == nullptr || *spec == '\0' ||
        std::strcmp(spec, "fp8") == 0) {
        *out = KvCacheMode::Fp8;
        return true;
    }
    if (std::strcmp(spec, "fp32") == 0) {
        *out = KvCacheMode::Fp32;
        return true;
    }
    return false;
}

KvCacheMode
kvCacheModeFromEnv()
{
    KvCacheMode m = KvCacheMode::Fp8;
    const char *spec = runtime::envConfig().kvCache().cstrOrNull();
    if (!parseKvCacheMode(spec, &m)) {
        warn("unknown SNIP_KV_CACHE value '", spec,
             "' (expected fp8|fp32); using fp8");
        m = KvCacheMode::Fp8;
    }
    return m;
}

KvCache::KvCache(const KvCacheConfig &config) : config_(config)
{
    SNIP_ASSERT(config.n_layers > 0 && config.n_kv_heads > 0 &&
                    config.head_dim > 0,
                "KvCache needs positive geometry");
    SNIP_ASSERT(config.page_tokens > 0 && config.max_pages > 0 &&
                    config.max_seqs > 0 && config.max_seq_tokens > 0,
                "KvCache needs positive capacity");

    slots_.resize(
        static_cast<size_t>(config.max_seqs * config.n_layers));
    const int64_t pages_per_seq_layer =
        (config.max_seq_tokens + config.page_tokens - 1) /
        config.page_tokens;
    for (auto &sl : slots_)
        sl.pages.reserve(static_cast<size_t>(pages_per_seq_layer));
    seq_active_.assign(static_cast<size_t>(config.max_seqs), 0);

    // LIFO free list holding every page; pop_back hands out the
    // lowest-numbered pages first.
    free_.reserve(static_cast<size_t>(config.max_pages));
    for (int64_t p = config.max_pages - 1; p >= 0; --p)
        free_.push_back(static_cast<int32_t>(p));

    const size_t row_floats = static_cast<size_t>(
        config.max_pages * 2 * config.page_tokens * config.kvDim());
    if (config.mode == KvCacheMode::Fp32) {
        data_.assign(row_floats, 0.0f);
    } else {
        codes_.assign(row_floats, 0);
        inv_scales_.assign(
            static_cast<size_t>(config.max_pages * 2 *
                                config.page_tokens *
                                config.n_kv_heads),
            0.0f);
        e4m3Magnitudes(); // build the codec table up front
    }
}

KvCache::SeqLayer &
KvCache::slot(int64_t seq_id, int64_t layer)
{
    SNIP_ASSERT(seq_id >= 0 && seq_id < config_.max_seqs,
                "bad KV seq id ", seq_id);
    SNIP_ASSERT(layer >= 0 && layer < config_.n_layers,
                "bad KV layer ", layer);
    return slots_[static_cast<size_t>(seq_id * config_.n_layers +
                                      layer)];
}

const KvCache::SeqLayer &
KvCache::slot(int64_t seq_id, int64_t layer) const
{
    return const_cast<KvCache *>(this)->slot(seq_id, layer);
}

bool
KvCache::sequenceActive(int64_t seq_id) const
{
    SNIP_ASSERT(seq_id >= 0 && seq_id < config_.max_seqs,
                "bad KV seq id ", seq_id);
    return seq_active_[static_cast<size_t>(seq_id)] != 0;
}

void
KvCache::beginSequence(int64_t seq_id)
{
    SNIP_ASSERT(!sequenceActive(seq_id), "KV seq ", seq_id,
                " is already active");
    for (int64_t l = 0; l < config_.n_layers; ++l) {
        SeqLayer &sl = slot(seq_id, l);
        SNIP_ASSERT(sl.pages.empty() && sl.length == 0,
                    "stale KV state for seq ", seq_id);
    }
    seq_active_[static_cast<size_t>(seq_id)] = 1;
    ++active_seqs_;
}

void
KvCache::endSequence(int64_t seq_id)
{
    SNIP_ASSERT(sequenceActive(seq_id), "KV seq ", seq_id,
                " is not active");
    int64_t released = 0;
    for (int64_t l = 0; l < config_.n_layers; ++l) {
        SeqLayer &sl = slot(seq_id, l);
        // Pages were acquired in ascending token order; return them in
        // the same order so the LIFO list re-issues the most recently
        // freed pages first.
        for (int32_t p : sl.pages) {
            free_.push_back(p);
            ++released;
        }
        sl.pages.clear();
        sl.length = 0;
    }
    pages_in_use_ -= released;
    seq_active_[static_cast<size_t>(seq_id)] = 0;
    --active_seqs_;
    telemetry::count(telemetry::Counter::KvPageReleases, released);
}

int64_t
KvCache::allocPage()
{
    SNIP_ASSERT(!free_.empty(),
                "KV cache out of pages (", config_.max_pages,
                " total); raise max_pages or retire sequences");
    const int32_t p = free_.back();
    free_.pop_back();
    ++pages_in_use_;
    telemetry::count(telemetry::Counter::KvPageAllocs);
    return p;
}

int64_t
KvCache::rowOffset(int64_t page, int64_t kv, int64_t tok) const
{
    return ((page * 2 + kv) * config_.page_tokens + tok) *
           config_.kvDim();
}

void
KvCache::encodeRow(int64_t page, int64_t kv, int64_t tok,
                   const float *src)
{
    const int64_t off = rowOffset(page, kv, tok);
    if (config_.mode == KvCacheMode::Fp32) {
        std::memcpy(data_.data() + off, src,
                    static_cast<size_t>(config_.kvDim()) *
                        sizeof(float));
        return;
    }
    const FloatFormat &fmt = fp8E4m3();
    const double fmt_max = fmt.maxValue();
    const simd::KernelTable &kt = simd::activeKernels();
    const int64_t hd = config_.head_dim;
    uint8_t *out = codes_.data() + off;
    float *inv_out =
        inv_scales_.data() +
        ((page * 2 + kv) * config_.page_tokens + tok) *
            config_.n_kv_heads;
    for (int64_t h = 0; h < config_.n_kv_heads; ++h) {
        const float *block = src + h * hd;
        // One scale per (token, kv-head) head_dim block — the same
        // max-abs/rescale recipe FakeQuantizer applies to a tile.
        const double max_abs =
            static_cast<double>(kt.maxAbs(block, hd));
        const double scale = regionScale(max_abs, fmt_max);
        const float fscale = static_cast<float>(scale);
        const float inv = static_cast<float>(1.0 / scale);
        inv_out[h] = inv;
        for (int64_t i = 0; i < hd; ++i)
            out[h * hd + i] =
                encodeE4m3(quantizeNearest(block[i] * fscale, fmt));
    }
}

void
KvCache::append(int64_t seq_id, int64_t layer, const float *k,
                const float *v)
{
    SNIP_ASSERT(sequenceActive(seq_id), "append to inactive KV seq ",
                seq_id);
    SeqLayer &sl = slot(seq_id, layer);
    SNIP_ASSERT(sl.length < config_.max_seq_tokens, "KV seq ", seq_id,
                " exceeds max_seq_tokens");
    const int64_t page_idx = sl.length / config_.page_tokens;
    const int64_t tok = sl.length % config_.page_tokens;
    if (page_idx == static_cast<int64_t>(sl.pages.size()))
        sl.pages.push_back(static_cast<int32_t>(allocPage()));
    const int64_t page = sl.pages[static_cast<size_t>(page_idx)];
    encodeRow(page, 0, tok, k);
    encodeRow(page, 1, tok, v);
    ++sl.length;
}

int64_t
KvCache::length(int64_t seq_id, int64_t layer) const
{
    return slot(seq_id, layer).length;
}

void
KvCache::gatherHead(int64_t seq_id, int64_t layer, int64_t kv,
                    int64_t kvh, float *dst) const
{
    const SeqLayer &sl = slot(seq_id, layer);
    const int64_t hd = config_.head_dim;
    if (config_.mode == KvCacheMode::Fp32) {
        for (int64_t t = 0; t < sl.length; ++t) {
            const int64_t page =
                sl.pages[static_cast<size_t>(t / config_.page_tokens)];
            const int64_t tok = t % config_.page_tokens;
            std::memcpy(dst + t * hd,
                        data_.data() + rowOffset(page, kv, tok) +
                            kvh * hd,
                        static_cast<size_t>(hd) * sizeof(float));
        }
        return;
    }
    const std::vector<float> &mags = e4m3Magnitudes();
    for (int64_t t = 0; t < sl.length; ++t) {
        const int64_t page =
            sl.pages[static_cast<size_t>(t / config_.page_tokens)];
        const int64_t tok = t % config_.page_tokens;
        const int64_t off = rowOffset(page, kv, tok) + kvh * hd;
        float *out = dst + t * hd;
        const uint8_t *codes = codes_.data() + off;
        const float inv =
            inv_scales_[static_cast<size_t>(
                ((page * 2 + kv) * config_.page_tokens + tok) *
                    config_.n_kv_heads +
                kvh)];
        for (int64_t i = 0; i < hd; ++i) {
            const uint8_t c = codes[i];
            const float mag = mags[static_cast<size_t>(c & 0x7f)];
            const float val = mag * inv;
            out[i] = (c & 0x80) ? -val : val;
        }
    }
}

void
KvCache::gatherHeadK(int64_t seq_id, int64_t layer, int64_t kvh,
                     float *dst) const
{
    gatherHead(seq_id, layer, 0, kvh, dst);
}

void
KvCache::gatherHeadV(int64_t seq_id, int64_t layer, int64_t kvh,
                     float *dst) const
{
    gatherHead(seq_id, layer, 1, kvh, dst);
}

} // namespace serve
} // namespace snip
