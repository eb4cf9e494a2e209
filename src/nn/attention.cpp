#include "nn/attention.h"

#include <cmath>

#include "runtime/thread_pool.h"
#include "runtime/workspace_arena.h"
#include "serve/kv_cache.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "telemetry/obs.h"
#include "tensor/gemm.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace snip {

namespace {

/**
 * Copy the [seq, width] slice for (batch b, head h) out of a
 * [batch*seq, n_heads*width] tensor into a contiguous buffer.
 */
void
gatherHead(const float *src, float *dst, int64_t b, int64_t h, int64_t seq,
           int64_t n_heads, int64_t width)
{
    const int64_t cols = n_heads * width;
    for (int64_t s = 0; s < seq; ++s) {
        const float *row = src + (b * seq + s) * cols + h * width;
        float *out = dst + s * width;
        for (int64_t c = 0; c < width; ++c)
            out[c] = row[c];
    }
}

/** Accumulate a contiguous [seq, width] buffer back into the slice. */
void
scatterHeadAdd(float *dst, const float *src, int64_t b, int64_t h,
               int64_t seq, int64_t n_heads, int64_t width)
{
    const int64_t cols = n_heads * width;
    for (int64_t s = 0; s < seq; ++s) {
        float *row = dst + (b * seq + s) * cols + h * width;
        const float *in = src + s * width;
        for (int64_t c = 0; c < width; ++c)
            row[c] += in[c];
    }
}

// ------------------------------------------------------ batched core

/** One batched attention invocation: dims plus every buffer the
 *  parallelFor lambdas touch (they capture a pointer to this). */
struct BatchCtx
{
    AttnShape s;
    int64_t count;    ///< batch * n_heads, ordered (b, h)
    int64_t kv_count; ///< batch * n_kv_heads, ordered (b, kvh)
    int64_t group;    ///< n_heads / n_kv_heads
    float scale;
    const simd::KernelTable *kt;
    const float *q, *k, *v;
    const float *dctx;
    float *probs;
    float *ctx;
    float *qg, *kg, *vg;      ///< gathered [*, seq, hd] head slabs
    float *cg, *dcg;          ///< context / dContext head slabs
    float *dqg, *dkg, *dvg;   ///< per-head / per-kv-head grad slabs
    float *dp, *ds;           ///< [count, seq*seq] softmax scratch
    float *dq, *dk, *dv;
    // Bound per gather call (lambdas capture only the ctx pointer so
    // the parallelFor std::function stays within its SBO — no alloc).
    const float *gather_src;
    float *gather_dst;
};

/** Gather all query heads (items ordered (b, h)) into a
 *  [count, seq, hd] slab. */
void
gatherQ(BatchCtx *c, const float *src, float *dst)
{
    c->gather_src = src;
    c->gather_dst = dst;
    const BatchCtx *pc = c;
    runtime::parallelFor(0, pc->count, 1, [pc](int64_t i0, int64_t i1) {
        const int64_t seq = pc->s.seq, hd = pc->s.head_dim;
        for (int64_t i = i0; i < i1; ++i)
            gatherHead(pc->gather_src, pc->gather_dst + i * seq * hd,
                       i / pc->s.n_heads, i % pc->s.n_heads, seq,
                       pc->s.n_heads, hd);
    });
}

/** Gather all kv heads (items ordered (b, kvh)) into a kv slab. */
void
gatherKV(BatchCtx *c, const float *src, float *dst)
{
    c->gather_src = src;
    c->gather_dst = dst;
    const BatchCtx *pc = c;
    runtime::parallelFor(
        0, pc->kv_count, 1, [pc](int64_t i0, int64_t i1) {
            const int64_t seq = pc->s.seq, hd = pc->s.head_dim;
            for (int64_t i = i0; i < i1; ++i)
                gatherHead(pc->gather_src,
                           pc->gather_dst + i * seq * hd,
                           i / pc->s.n_kv_heads, i % pc->s.n_kv_heads,
                           seq, pc->s.n_kv_heads, hd);
        });
}

/**
 * Batched forward. Item i = b*n_heads + h walks the (b, h) space in
 * order, and — because query heads are numbered kvh*group + g — its kv
 * head is simply i / group, so the strided-batch GEMMs read the
 * gathered slabs directly. All scratch comes from workspace arenas:
 * zero steady-state heap allocations.
 */
void
forwardBatched(const AttnShape &s, const float *q, const float *k,
           const float *v, float *probs, float *ctx)
{
    BatchCtx c;
    c.s = s;
    c.count = s.batch * s.n_heads;
    c.kv_count = s.batch * s.n_kv_heads;
    c.group = s.n_heads / s.n_kv_heads;
    c.scale = 1.0f / std::sqrt(static_cast<float>(s.head_dim));
    c.kt = &simd::activeKernels();
    c.q = q;
    c.k = k;
    c.v = v;
    c.probs = probs;
    c.ctx = ctx;

    const int64_t seq = s.seq, hd = s.head_dim;
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    c.qg = arena.getFloats(static_cast<size_t>(c.count * seq * hd));
    c.kg = arena.getFloats(static_cast<size_t>(c.kv_count * seq * hd));
    c.vg = arena.getFloats(static_cast<size_t>(c.kv_count * seq * hd));
    c.cg = arena.getFloats(static_cast<size_t>(c.count * seq * hd));

    gatherQ(&c, q, c.qg);
    gatherKV(&c, k, c.kg);
    gatherKV(&c, v, c.vg);
    const BatchCtx *pc = &c;

    // Scores: one strided-batch NT over every (b,h); each kv head's
    // packed K panel is built once and streamed by its group.
    gemmBatchedNT(c.qg, seq * hd, c.kg, seq * hd, probs, seq * seq,
                  c.count, seq, seq, hd, c.group);

    // Fused scale + causal mask + softmax, one item per work unit.
    runtime::parallelFor(0, c.count, 1, [pc](int64_t i0, int64_t i1) {
        const int64_t sq = pc->s.seq * pc->s.seq;
        for (int64_t i = i0; i < i1; ++i)
            pc->kt->attnSoftmaxFwd(pc->probs + i * sq, pc->s.seq,
                                   pc->scale);
    });

    // Context: strided-batch NN against the shared V panels.
    gemmBatchedNN(probs, seq * seq, c.vg, seq * hd, c.cg, seq * hd,
                  c.count, seq, hd, seq, c.group);

    // Scatter the context slabs back; each (b,h) slice is written
    // exactly once, so items are disjoint.
    runtime::parallelFor(0, c.count, 1, [pc](int64_t i0, int64_t i1) {
        const int64_t seq2 = pc->s.seq, hd2 = pc->s.head_dim;
        const int64_t cols = pc->s.n_heads * hd2;
        for (int64_t i = i0; i < i1; ++i) {
            const int64_t b = i / pc->s.n_heads;
            const int64_t h = i % pc->s.n_heads;
            const float *src = pc->cg + i * seq2 * hd2;
            for (int64_t ss = 0; ss < seq2; ++ss) {
                float *dst =
                    pc->ctx + (b * seq2 + ss) * cols + h * hd2;
                for (int64_t cc = 0; cc < hd2; ++cc)
                    dst[cc] = src[ss * hd2 + cc];
            }
        }
    });
}

void
backwardBatched(const AttnShape &s, const float *q, const float *k,
            const float *v, const float *probs, const float *dctx,
            float *dq, float *dk, float *dv)
{
    BatchCtx c;
    c.s = s;
    c.count = s.batch * s.n_heads;
    c.kv_count = s.batch * s.n_kv_heads;
    c.group = s.n_heads / s.n_kv_heads;
    c.scale = 1.0f / std::sqrt(static_cast<float>(s.head_dim));
    c.kt = &simd::activeKernels();
    c.q = q;
    c.k = k;
    c.v = v;
    c.dctx = dctx;
    c.probs = const_cast<float *>(probs);
    c.dq = dq;
    c.dk = dk;
    c.dv = dv;

    const int64_t seq = s.seq, hd = s.head_dim;
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    c.qg = arena.getFloats(static_cast<size_t>(c.count * seq * hd));
    c.kg = arena.getFloats(static_cast<size_t>(c.kv_count * seq * hd));
    c.vg = arena.getFloats(static_cast<size_t>(c.kv_count * seq * hd));
    c.dcg = arena.getFloats(static_cast<size_t>(c.count * seq * hd));
    c.dqg = arena.getFloats(static_cast<size_t>(c.count * seq * hd));
    c.dkg = arena.getFloats(static_cast<size_t>(c.kv_count * seq * hd));
    c.dvg = arena.getFloats(static_cast<size_t>(c.kv_count * seq * hd));
    c.dp = arena.getFloats(static_cast<size_t>(c.count * seq * seq));
    // attnSoftmaxBwd supports ds aliasing dp (kernels.h), so dS
    // overwrites dP in place — one O(count*seq^2) slab, not two.
    c.ds = c.dp;

    gatherQ(&c, q, c.qg);
    gatherKV(&c, k, c.kg);
    gatherKV(&c, v, c.vg);
    gatherQ(&c, dctx, c.dcg);
    const BatchCtx *pc = &c;

    // dV = P^T dCtx, reduced per kv head (group items add in fixed
    // ascending order — the GQA scatter stays bit-identical at any
    // thread count); dP = dCtx V^T against the shared V panels.
    gemmBatchedTN(c.probs, seq * seq, c.dcg, seq * hd, c.dvg, seq * hd,
                  c.count, seq, hd, seq, c.group);
    gemmBatchedNT(c.dcg, seq * hd, c.vg, seq * hd, c.dp, seq * seq,
                  c.count, seq, seq, hd, c.group);

    // Fused softmax backward per item.
    runtime::parallelFor(0, c.count, 1, [pc](int64_t i0, int64_t i1) {
        const int64_t sq = pc->s.seq * pc->s.seq;
        for (int64_t i = i0; i < i1; ++i)
            pc->kt->attnSoftmaxBwd(pc->probs + i * sq, pc->dp + i * sq,
                                   pc->ds + i * sq, pc->s.seq,
                                   pc->scale);
    });

    // dQ = dS K (shared K panels); dK = dS^T Q (per-kv-head reduce).
    gemmBatchedNN(c.ds, seq * seq, c.kg, seq * hd, c.dqg, seq * hd,
                  c.count, seq, hd, seq, c.group);
    gemmBatchedTN(c.ds, seq * seq, c.qg, seq * hd, c.dkg, seq * hd,
                  c.count, seq, hd, seq, c.group);

    // Scatter-add the slabs back: dq items and dk/dv kv items each own
    // disjoint slices of their outputs.
    runtime::parallelFor(0, c.count, 1, [pc](int64_t i0, int64_t i1) {
        const int64_t seq2 = pc->s.seq, hd2 = pc->s.head_dim;
        for (int64_t i = i0; i < i1; ++i)
            scatterHeadAdd(pc->dq, pc->dqg + i * seq2 * hd2,
                           i / pc->s.n_heads, i % pc->s.n_heads, seq2,
                           pc->s.n_heads, hd2);
    });
    runtime::parallelFor(0, c.kv_count, 1, [pc](int64_t i0, int64_t i1) {
        const int64_t seq2 = pc->s.seq, hd2 = pc->s.head_dim;
        for (int64_t i = i0; i < i1; ++i) {
            const int64_t b = i / pc->s.n_kv_heads;
            const int64_t kvh = i % pc->s.n_kv_heads;
            scatterHeadAdd(pc->dk, pc->dkg + i * seq2 * hd2, b, kvh,
                           seq2, pc->s.n_kv_heads, hd2);
            scatterHeadAdd(pc->dv, pc->dvg + i * seq2 * hd2, b, kvh,
                           seq2, pc->s.n_kv_heads, hd2);
        }
    });
}

// ------------------------------------------------------- decode core

/**
 * One decode invocation: everything the parallelFor lambda touches
 * (it captures a pointer to this, keeping the std::function inside
 * its SBO — no allocation).
 */
struct DecodeCtx
{
    const KvCacheHandle *kv;
    int64_t block;
    int64_t n_heads, n_kv, group, hd;
    float scale;
    const float *q; ///< post-RoPE queries [count, n_heads*hd]
    float *ctx;     ///< output pre-O     [count, n_heads*hd]
};

/**
 * Decode attention for items (row, kvh): the kvAttend walker reads the
 * kv head's K/V rows in place from the cache pages and runs every
 * query head of the group through score, softmax and context. The
 * softmax replays the last row of the scalar reference kernel and the
 * sums keep the one-row GEMMs' per-element arithmetic, so a decode row
 * over the fp32 cache is bit-identical to row L-1 of the
 * full-sequence core.
 */
void
decodeAttendItems(const DecodeCtx *dc, int64_t i0, int64_t i1)
{
    const int64_t hd = dc->hd;
    const simd::KernelTable &kt = simd::activeKernels();
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    for (int64_t i = i0; i < i1; ++i) {
        const int64_t row = i / dc->n_kv;
        const int64_t kvh = i % dc->n_kv;
        const simd::KvHeadView view =
            dc->kv->cache->headView(dc->kv->seq_ids[row], dc->block, kvh);
        runtime::ArenaScope scope(arena);
        float *scratch = arena.getFloats(static_cast<size_t>(
            simd::kvAttendScratch(view, dc->group)));
        const int64_t off = row * dc->n_heads * hd + kvh * dc->group * hd;
        kt.kvAttend(view, dc->q + off, dc->group, dc->scale, scratch,
                    dc->ctx + off);
    }
}

void
validateShape(const AttnShape &s)
{
    SNIP_ASSERT(s.n_heads > 0 && s.n_kv_heads > 0,
                "attention needs positive head counts");
    SNIP_ASSERT(s.n_heads % s.n_kv_heads == 0, "n_heads (", s.n_heads,
                ") not divisible by n_kv_heads (", s.n_kv_heads, ")");
    SNIP_ASSERT(s.batch > 0 && s.seq > 0 && s.head_dim > 0,
                "attention dims must be positive");
}

} // namespace

// --------------------------------------------------------- core API

void
attentionForwardCore(const AttnShape &s, const float *q, const float *k,
                     const float *v, float *probs, float *ctx)
{
    validateShape(s);
    obs::Scope timed(telemetry::Timer::AttnFwd, trace::Category::Attn,
                     "attn_fwd", "batch", s.batch, "heads", s.n_heads);
    forwardBatched(s, q, k, v, probs, ctx);
}

void
attentionBackwardCore(const AttnShape &s, const float *q, const float *k,
                      const float *v, const float *probs,
                      const float *dctx, float *dq, float *dk, float *dv)
{
    validateShape(s);
    obs::Scope timed(telemetry::Timer::AttnBwd, trace::Category::Attn,
                     "attn_bwd", "batch", s.batch, "heads", s.n_heads);
    backwardBatched(s, q, k, v, probs, dctx, dq, dk, dv);
}

// ------------------------------------------------------------ module

Attention::Attention(const ModelConfig &config, int block, Rng &rng,
                     FakeQuantizer *quantizer, const Rope *rope)
    : config_(config), block_(block), rope_(rope)
{
    // GQA shape validation: a truncating group = n_heads / n_kv_heads
    // silently maps query heads onto the wrong kv head, and a
    // non-divisible d_model truncates headDim() — both produce garbage
    // output instead of failing. Catch them at construction.
    SNIP_ASSERT(config.n_heads > 0 && config.n_kv_heads > 0,
                "attention needs positive head counts");
    SNIP_ASSERT(config.d_model % config.n_heads == 0, "d_model (",
                config.d_model, ") not divisible by n_heads (",
                config.n_heads, ")");
    SNIP_ASSERT(config.n_heads % config.n_kv_heads == 0, "n_heads (",
                config.n_heads, ") not divisible by n_kv_heads (",
                config.n_kv_heads, ")");
    const int64_t d = config.d_model;
    const int64_t q_dim = config.n_heads * config.headDim();
    const int64_t kv_dim = config.kvDim();
    auto name = [block](const char *role) {
        return strformat("blk%02d.%s", block, role);
    };
    wq_ = std::make_unique<Linear>(name("Q"), q_dim, d, rng,
                                   config.init_std, quantizer);
    wk_ = std::make_unique<Linear>(name("K"), kv_dim, d, rng,
                                   config.init_std, quantizer);
    wv_ = std::make_unique<Linear>(name("V"), kv_dim, d, rng,
                                   config.init_std, quantizer);
    wo_ = std::make_unique<Linear>(name("O"), d, q_dim, rng,
                                   config.init_std, quantizer);
}

Linear &
Attention::linear(LayerRole role)
{
    switch (role) {
        case LayerRole::Q:
            return *wq_;
        case LayerRole::K:
            return *wk_;
        case LayerRole::V:
            return *wv_;
        case LayerRole::O:
            return *wo_;
        default:
            panic("not an attention role");
    }
}

ParamList
Attention::params()
{
    return {wq_->param(), wk_->param(), wv_->param(), wo_->param()};
}

int64_t
Attention::savedStateBytes() const
{
    return static_cast<int64_t>(sizeof(float)) *
           (q_.numel() + k_.numel() + v_.numel() + probs_.numel() +
            ctx_.numel());
}

Tensor
Attention::forward(const Tensor &x, int64_t batch, int64_t seq)
{
    batch_ = batch;
    seq_ = seq;
    const int64_t hd = config_.headDim();
    const int64_t n_heads = config_.n_heads;
    const int64_t n_kv = config_.n_kv_heads;

    q_ = wq_->forward(x);
    k_ = wk_->forward(x);
    v_ = wv_->forward(x);
    rope_->apply(q_, batch, seq, n_heads);
    rope_->apply(k_, batch, seq, n_kv);

    probs_ = Tensor(batch * n_heads * seq, seq);
    ctx_ = Tensor(batch * seq, n_heads * hd);
    const AttnShape s{batch, seq, n_heads, n_kv, hd};
    attentionForwardCore(s, q_.data(), k_.data(), v_.data(),
                         probs_.data(), ctx_.data());
    return wo_->forward(ctx_);
}

void
Attention::forwardInference(const float *x, int64_t rows,
                            const KvCacheHandle &kv, float *y)
{
    SNIP_ASSERT(kv.valid(), "an inference step needs a cache handle");
    const int64_t hd = config_.headDim();
    const int64_t n_heads = config_.n_heads;
    const int64_t n_kv = config_.n_kv_heads;
    const int64_t q_dim = n_heads * hd;
    const int64_t kv_dim = config_.kvDim();

    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    float *q = arena.getFloats(static_cast<size_t>(rows * q_dim));
    float *kb = arena.getFloats(static_cast<size_t>(rows * kv_dim));
    float *vb = arena.getFloats(static_cast<size_t>(rows * kv_dim));
    float *ctx = arena.getFloats(static_cast<size_t>(rows * q_dim));

    wq_->forwardInference(x, rows, q);
    wk_->forwardInference(x, rows, kb);
    wv_->forwardInference(x, rows, vb);

    if (kv.cache->length(kv.seq_ids[0], block_) == 0) {
        // A fresh sequence's prompt attends its own fp32 rows through
        // the training core (causal over positions 0..rows-1, the same
        // bits as a training forward), then fills the cache.
        SNIP_ASSERT(kv.count == 1,
                    "a fresh sequence's prompt takes a step of its own");
        const int64_t sid = kv.seq_ids[0];
        for (int64_t r = 0; r < rows; ++r) {
            rope_->applyRow(q + r * q_dim, n_heads, r);
            rope_->applyRow(kb + r * kv_dim, n_kv, r);
        }
        float *probs =
            arena.getFloats(static_cast<size_t>(n_heads * rows * rows));
        const AttnShape s{1, rows, n_heads, n_kv, hd};
        attentionForwardCore(s, q, kb, vb, probs, ctx);
        for (int64_t r = 0; r < rows; ++r)
            kv.cache->append(sid, block_, kb + r * kv_dim, vb + r * kv_dim);
    } else {
        SNIP_ASSERT(kv.count == rows,
                    "a sequence with history takes one token per step");
        // Rotate at each sequence's current position, then append the
        // new K/V rows serially (the cache is not thread-safe; the
        // walkers below read an immutable cache).
        for (int64_t i = 0; i < rows; ++i) {
            const int64_t sid = kv.seq_ids[i];
            const int64_t pos = kv.cache->length(sid, block_);
            SNIP_ASSERT(pos > 0, "sequence ", sid,
                        " has no history: its prompt takes its own step");
            rope_->applyRow(q + i * q_dim, n_heads, pos);
            rope_->applyRow(kb + i * kv_dim, n_kv, pos);
            kv.cache->append(sid, block_, kb + i * kv_dim, vb + i * kv_dim);
        }

        DecodeCtx dc;
        dc.kv = &kv;
        dc.block = block_;
        dc.n_heads = n_heads;
        dc.n_kv = n_kv;
        dc.group = n_heads / n_kv;
        dc.hd = hd;
        dc.scale = 1.0f / std::sqrt(static_cast<float>(hd));
        dc.q = q;
        dc.ctx = ctx;
        const DecodeCtx *pdc = &dc;
        obs::Scope timed(telemetry::Timer::AttnDecode,
                         trace::Category::Attn, "attn_decode", "rows",
                         rows, "heads", n_heads);
        runtime::parallelFor(0, rows * n_kv, 1,
                             [pdc](int64_t i0, int64_t i1) {
                                 decodeAttendItems(pdc, i0, i1);
                             });
    }

    wo_->forwardInference(ctx, rows, y);
}

Tensor
Attention::backward(const Tensor &dy, bool retain)
{
    SNIP_ASSERT(batch_ > 0, "backward before forward");
    const int64_t batch = batch_, seq = seq_;
    const int64_t hd = config_.headDim();
    const int64_t n_heads = config_.n_heads;
    const int64_t n_kv = config_.n_kv_heads;

    Tensor dctx = wo_->backward(dy);

    Tensor dq(batch * seq, n_heads * hd);
    Tensor dk(batch * seq, n_kv * hd);
    Tensor dv(batch * seq, n_kv * hd);

    const AttnShape s{batch, seq, n_heads, n_kv, hd};
    attentionBackwardCore(s, q_.data(), k_.data(), v_.data(),
                          probs_.data(), dctx.data(), dq.data(),
                          dk.data(), dv.data());

    // Undo RoPE on the gradients (rotations are orthogonal).
    rope_->apply(dq, batch, seq, n_heads, /*inverse=*/true);
    rope_->apply(dk, batch, seq, n_kv, /*inverse=*/true);

    // Unless the caller backprops this forward again, the saved state
    // is no longer needed: release it here so O(B*H*S^2) probabilities
    // (and q/k/v/ctx) are not pinned between steps. The next
    // backward() then needs a fresh forward() first.
    if (!retain) {
        q_ = Tensor();
        k_ = Tensor();
        v_ = Tensor();
        probs_ = Tensor();
        ctx_ = Tensor();
        batch_ = 0;
        seq_ = 0;
    }

    Tensor dx = wq_->backward(dq);
    Tensor dxk = wk_->backward(dk);
    Tensor dxv = wv_->backward(dv);
    const float *pk = dxk.data();
    const float *pv = dxv.data();
    float *px = dx.data();
    for (int64_t i = 0; i < dx.numel(); ++i)
        px[i] += pk[i] + pv[i];
    return dx;
}

} // namespace snip
