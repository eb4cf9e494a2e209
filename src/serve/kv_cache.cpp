#include "serve/kv_cache.h"

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
        grid_ = quantGrid(fp8E4m3());
        fmt_max_ = fp8E4m3().maxValue();
        snap_.assign(static_cast<size_t>(config.head_dim), 0.0f);
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

int64_t
KvCache::scaleIndex(int64_t page, int64_t kv, int64_t tok) const
{
    return ((page * 2 + kv) * config_.page_tokens + tok) *
           config_.n_kv_heads;
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
    const simd::KernelTable &kt = simd::activeKernels();
    const int64_t hd = config_.head_dim;
    uint8_t *out = codes_.data() + off;
    float *inv_out = inv_scales_.data() + scaleIndex(page, kv, tok);
    float *snap = snap_.data();
    for (int64_t h = 0; h < config_.n_kv_heads; ++h) {
        // One scaling region per (token, kv-head) head_dim block.
        const RegionScale rs =
            scaleRegion(kt, src, config_.kvDim(),
                        {0, 1, h * hd, (h + 1) * hd}, fmt_max_);
        inv_out[h] = rs.inv;
        // Grid-snap x * scale; inv_scale 1 keeps the snapped grid
        // value exactly, which is what gets encoded.
        std::memcpy(snap, src + h * hd,
                    static_cast<size_t>(hd) * sizeof(float));
        kt.quantizeNearest(snap, hd, fp8E4m3(), grid_, rs.scale, 1.0f);
        encodeE4m3(snap, hd, out + h * hd);
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
    for (int64_t t = 0; t < sl.length; ++t) {
        const int64_t page =
            sl.pages[static_cast<size_t>(t / config_.page_tokens)];
        const int64_t tok = t % config_.page_tokens;
        const int64_t off = rowOffset(page, kv, tok) + kvh * hd;
        float *out = dst + t * hd;
        if (config_.mode == KvCacheMode::Fp32) {
            std::memcpy(out, data_.data() + off,
                        static_cast<size_t>(hd) * sizeof(float));
            continue;
        }
        const uint8_t *codes = codes_.data() + off;
        const float inv = inv_scales_[static_cast<size_t>(
            scaleIndex(page, kv, tok) + kvh)];
        for (int64_t i = 0; i < hd; ++i)
            out[i] = dequantE4m3(codes[i], inv);
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

simd::KvHeadView
KvCache::headView(int64_t seq_id, int64_t layer, int64_t kvh) const
{
    const SeqLayer &sl = slot(seq_id, layer);
    const int64_t hd = config_.head_dim;
    simd::KvHeadView v;
    v.pages = sl.pages.data();
    v.len = sl.length;
    v.page_tokens = config_.page_tokens;
    v.head_dim = hd;
    v.page_stride = rowOffset(1, 0, 0);
    v.row_stride = rowOffset(0, 0, 1);
    const int64_t k_off = kvh * hd;
    const int64_t v_off = rowOffset(0, 1, 0) + kvh * hd;
    if (config_.mode == KvCacheMode::Fp32) {
        v.k_vals = data_.data() + k_off;
        v.v_vals = data_.data() + v_off;
        return v;
    }
    v.k_codes = codes_.data() + k_off;
    v.v_codes = codes_.data() + v_off;
    v.inv_page_stride = scaleIndex(1, 0, 0);
    v.inv_row_stride = scaleIndex(0, 0, 1);
    v.k_inv = inv_scales_.data() + kvh;
    v.v_inv = inv_scales_.data() + scaleIndex(0, 1, 0) + kvh;
    return v;
}

} // namespace serve
} // namespace snip
