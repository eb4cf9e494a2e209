#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "runtime/thread_pool.h"
#include "runtime/workspace_arena.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "telemetry/obs.h"
#include "util/logging.h"
#include "util/thread_annotations.h"

namespace snip {

namespace {

using simd::kGemmPackMR;
using simd::kGemmPackNR;
using simd::packStrips;

/// Number of kGemmBlockM-row blocks (the parallelFor unit: every
/// worker owns whole rows of C, so outputs are disjoint and the
/// per-element accumulation order never depends on thread count).
int64_t
mBlocks(int64_t m)
{
    return (m + simd::kGemmBlockM - 1) / simd::kGemmBlockM;
}

// ------------------------------------------------ operand quantization

/**
 * The source a pack reads for one operand: @p src itself when @p cfg
 * is null, else a quantized copy in @p arena scratch, made by
 * quantizeMatrix over the rows x cols SOURCE matrix (FakeQuantizer's
 * region routine, with the config's call key), so the product is
 * bit-identical to quantizing a copy with FakeQuantizer and multiplying
 * it. Runs on the pool, region-parallel.
 */
const float *
quantizedOperand(runtime::WorkspaceArena &arena, const QuantConfig *cfg,
                 const float *src, int64_t rows, int64_t cols)
{
    if (cfg == nullptr)
        return src;
    SNIP_ASSERT(cfg->format.name != "bf16",
                "bf16 operands take the passthrough path");
    float *q = arena.getFloats(static_cast<size_t>(rows * cols));
    quantizeMatrix(src, q, rows, cols, *cfg, cfg->call_key);
    return q;
}

// ----------------------------------------------------- packed driver

/** One packed GEMM invocation (lambdas capture a pointer to this). */
struct PackedCtx
{
    const simd::KernelTable *kt;
    const float *a;
    int64_t a_ld;
    bool a_k_major;
    const float *b;
    int64_t b_ld;
    bool b_k_major;
    float *c;
    int64_t m, n, k;
    bool accumulate;
    const float *bp = nullptr;
    float *bp_mut = nullptr;
};

/** Pack the whole B operand into bp_mut, one strip per parallel
 *  unit (pure copies: deterministic under any partition). */
void
packBPhase(const PackedCtx *ctx)
{
    const int64_t strips = packStrips(ctx->n, kGemmPackNR);
    runtime::parallelFor(
        0, strips, 1, [ctx](int64_t s0, int64_t s1) {
            const int64_t j0 = s0 * kGemmPackNR;
            const int64_t j1 =
                std::min(ctx->n, s1 * kGemmPackNR);
            ctx->kt->packB(ctx->b, ctx->b_ld, ctx->b_k_major,
                           ctx->bp_mut, j0, j1, ctx->n, ctx->k);
        });
}

/**
 * C rows [i0, i1) (+)= A rows * packed B. The rows' A panel is packed
 * into the executing thread's arena and streamed through the block
 * microkernel. A row-major block of fewer rows than one A strip skips
 * the pack and streams its rows in place. Both kernels do the same
 * per-element work, so the choice never changes a bit.
 */
void
multiplyBlock(const simd::KernelTable &kt, const float *a, int64_t a_ld,
              bool a_k_major, const float *bp, float *c, int64_t i0,
              int64_t i1, int64_t n, int64_t k, bool accumulate)
{
    const int64_t mb = i1 - i0;
    float *cb = c + i0 * n;
    const size_t c_bytes = sizeof(float) * static_cast<size_t>(mb * n);
    if (mb < kGemmPackMR && !a_k_major) {
        if (!accumulate)
            std::memset(cb, 0, c_bytes);
        kt.gemmPackedRows(a + i0 * a_ld, a_ld, bp, cb, n, mb, n, k);
        return;
    }
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    // +8: PackAFn transpose-store headroom (kernels.h).
    float *ap = arena.getFloats(static_cast<size_t>(
        packStrips(mb, kGemmPackMR) * kGemmPackMR * k + 8));
    kt.packA(a, a_ld, a_k_major, ap, i0, i1, k);
    // Zeroed after the pack, so the rows are still cached for the
    // kernel's adds.
    if (!accumulate)
        std::memset(cb, 0, c_bytes);
    kt.gemmPackedBlock(ap, bp, cb, n, mb, n, k);
}

/**
 * The packed loop nest: M-blocks fan out over the pool, each streaming
 * the shared packed B panel (multiplyBlock). M-block ownership and the
 * per-element k-ascending accumulation are identical for any thread
 * count.
 */
void
gemmPhase(const PackedCtx *ctx)
{
    runtime::parallelFor(
        0, mBlocks(ctx->m), 1, [ctx](int64_t b0, int64_t b1) {
            for (int64_t bi = b0; bi < b1; ++bi) {
                const int64_t i0 = bi * simd::kGemmBlockM;
                multiplyBlock(*ctx->kt, ctx->a, ctx->a_ld, ctx->a_k_major,
                              ctx->bp, ctx->c, i0,
                              std::min(i0 + simd::kGemmBlockM, ctx->m),
                              ctx->n, ctx->k, ctx->accumulate);
            }
        });
}

// ------------------------------------------------ packed-weight cache

/**
 * Weight-pack epoch. 0 means "no weight mutator has ever announced
 * itself": until the first invalidateWeightPacks() call (optimizer
 * step, checkpoint restore) the single-writer discipline the implicit
 * per-layer caches rely on is not established — code that mutates
 * weights through raw ParamRef pointers without telling anyone (e.g.
 * finite-difference gradient checks) is then still correct, because
 * Linear only hands its cache to the GEMM once the epoch is non-zero.
 * Explicit PackedWeightCache users (benches, tests) opt in regardless.
 */
std::atomic<uint64_t> g_weight_epoch{0};

uint64_t
policyKey(const QuantConfig *cfg)
{
    if (cfg == nullptr)
        return 0;
    uint64_t h = 1469598103934665603ull; // FNV-1a
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (char ch : cfg->format.name)
        mix(static_cast<uint64_t>(static_cast<unsigned char>(ch)));
    mix(static_cast<uint64_t>(cfg->scaling.granularity));
    mix(static_cast<uint64_t>(cfg->scaling.block));
    mix(static_cast<uint64_t>(cfg->rounding));
    return h | 1; // never collides with the "no quantization" key 0
}

} // namespace

struct PackedWeightCache::Impl
{
    /** One packed panel for one GEMM orientation of the weight (0 = NT
     *  B operand, 1 = NN B operand). */
    struct Slot
    {
        std::vector<float> packed;
        bool valid = false;
        uint64_t epoch = 0;
        uint64_t key = 0;
        int64_t n = 0, k = 0;
    };
    util::Mutex mu;
    Slot slots[2] SNIP_GUARDED_BY(mu);
    /** Epoch in which a mutable weight reference escaped (non-const
     *  Linear::weight()): implicit caching stays off until the next
     *  epoch re-establishes the single-writer discipline. ~0 = never.
     *  Atomic (not mu-guarded) so implicitCachingActive() can poll it
     *  from the hot path without taking the cache lock. */
    std::atomic<uint64_t> disabled_epoch{~uint64_t{0}};
};

PackedWeightCache::PackedWeightCache() : impl_(new Impl) {}
PackedWeightCache::~PackedWeightCache() = default;

void
PackedWeightCache::invalidate()
{
    util::MutexLock lk(impl_->mu);
    impl_->slots[0].valid = false;
    impl_->slots[1].valid = false;
    // Release pairs with the acquire in implicitCachingActive(): a
    // thread that observes the new disabled_epoch also observes the
    // slot invalidation above.
    impl_->disabled_epoch.store(
        g_weight_epoch.load(std::memory_order_acquire),
        std::memory_order_release);
}

bool
PackedWeightCache::implicitCachingActive() const
{
    const uint64_t epoch =
        g_weight_epoch.load(std::memory_order_acquire);
    return epoch > 0 &&
           impl_->disabled_epoch.load(std::memory_order_acquire) !=
               epoch;
}

void
invalidateWeightPacks()
{
    g_weight_epoch.fetch_add(1, std::memory_order_acq_rel);
}

namespace {

/**
 * Return the packed B panel for a cached weight, (re)building it when
 * stale: quantize the weight into @p arena scratch, then pack it. The
 * rebuild runs parallelFors, so it runs outside the cache lock (a pool
 * submission nested inside it would invert sharded eval's lock order):
 * the slot's buffer is swapped out under the lock, filled unlocked and
 * swapped back. Swaps allocate nothing and buffers are retained across
 * epochs, so a steady-state repack allocates nothing.
 */
const float *
cachedPackB(PackedWeightCache *cache, int orient, PackedCtx *ctx,
            runtime::WorkspaceArena &arena, const QuantConfig *cfg,
            int64_t src_rows, int64_t src_cols)
{
    SNIP_ASSERT(cfg == nullptr || cfg->rounding == Rounding::Nearest,
                "a cached weight panel must round to nearest");
    PackedWeightCache::Impl &impl = cache->impl();
    const uint64_t epoch =
        g_weight_epoch.load(std::memory_order_acquire);
    const uint64_t key = policyKey(cfg);
    std::vector<float> panel;
    {
        util::MutexLock lk(impl.mu);
        PackedWeightCache::Impl::Slot &slot = impl.slots[orient];
        if (slot.valid && slot.epoch == epoch && slot.key == key &&
            slot.n == ctx->n && slot.k == ctx->k) {
            telemetry::count(telemetry::Counter::PackCacheHits);
            return slot.packed.data();
        }
        slot.valid = false;
        panel.swap(slot.packed);
    }
    telemetry::count(telemetry::Counter::PackCacheRebuilds);
    panel.resize(static_cast<size_t>(
        packStrips(ctx->n, kGemmPackNR) * kGemmPackNR * ctx->k));
    ctx->b = quantizedOperand(arena, cfg, ctx->b, src_rows, src_cols);
    ctx->bp_mut = panel.data();
    packBPhase(ctx);
    ctx->bp_mut = nullptr;
    util::MutexLock lk(impl.mu);
    PackedWeightCache::Impl::Slot &slot = impl.slots[orient];
    slot.packed.swap(panel);
    slot.valid = true;
    slot.epoch = epoch;
    slot.key = key;
    slot.n = ctx->n;
    slot.k = ctx->k;
    return slot.packed.data();
}

/**
 * Shared packed driver. Source layouts per variant:
 *   NT: A = src[M,K] (row-major), B = src[N,K]  -> b_k_major = false
 *   NN: A = src[M,K],             B = src[K,N]  -> b_k_major = true
 *   TN: A = src[K,M] (a_k_major), B = src[K,N]
 * (a_rows, a_cols) / (b_rows, b_cols) are SOURCE dims — the geometry
 * fake quantization is defined on. Every source is dense (ld == cols),
 * so a quantized copy keeps the leading dimension.
 */
void
packedGemm(const float *a, int64_t a_ld, bool a_k_major, int64_t a_rows,
           int64_t a_cols, const QuantConfig *aq_cfg, const float *b,
           int64_t b_ld, bool b_k_major, int64_t b_rows, int64_t b_cols,
           const QuantConfig *bq_cfg, PackedWeightCache *bcache,
           int orient, float *c, int64_t m, int64_t n, int64_t k,
           bool accumulate)
{
    if (m <= 0 || n <= 0)
        return;
    if (k <= 0) {
        if (!accumulate)
            std::memset(c, 0,
                        sizeof(float) * static_cast<size_t>(m * n));
        return;
    }
    obs::Scope timed(telemetry::Timer::Gemm, trace::Category::Gemm,
                     "gemm_packed", "m", m, "n", n);
    telemetry::count(telemetry::Counter::GemmPackedCalls);
    telemetry::count(telemetry::Counter::GemmFlops, 2 * m * n * k);
    const simd::KernelTable &kt = simd::activeKernels();
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);

    PackedCtx ctx;
    ctx.kt = &kt;
    ctx.a = a;
    ctx.a_ld = a_ld;
    ctx.a_k_major = a_k_major;
    ctx.b = b;
    ctx.b_ld = b_ld;
    ctx.b_k_major = b_k_major;
    ctx.c = c;
    ctx.m = m;
    ctx.n = n;
    ctx.k = k;
    ctx.accumulate = accumulate;

    ctx.a = quantizedOperand(arena, aq_cfg, a, a_rows, a_cols);
    if (bcache != nullptr) {
        ctx.bp = cachedPackB(bcache, orient, &ctx, arena, bq_cfg, b_rows,
                             b_cols);
    } else {
        ctx.b = quantizedOperand(arena, bq_cfg, b, b_rows, b_cols);
        float *bp = arena.getFloats(static_cast<size_t>(
            packStrips(n, kGemmPackNR) * kGemmPackNR * k));
        ctx.bp_mut = bp;
        packBPhase(&ctx);
        ctx.bp = bp;
    }
    gemmPhase(&ctx);
}

// ------------------------------------------------- strided-batch path

/** One strided-batch GEMM invocation (lambdas capture a pointer). */
struct BatchedCtx
{
    const simd::KernelTable *kt;
    const float *a;
    int64_t a_stride, a_ld;
    bool a_k_major;
    const float *b;
    int64_t b_stride, b_ld;
    bool b_k_major;
    float *c;
    int64_t c_stride;
    int64_t count, m, n, k, group;
    bool accumulate;
    float *bp = nullptr;    ///< per-group packed B panels (NT/NN)
    int64_t bp_stride = 0;
};

/** One batch item against an already-packed B panel: per M-block the
 *  same multiplyBlock gemmPhase issues, so per-element accumulation
 *  order matches the per-item gemmPacked* entry points exactly. */
void
runItemPacked(const BatchedCtx *ctx, const float *a, const float *bp,
              float *c, bool accumulate)
{
    for (int64_t bi = 0; bi < mBlocks(ctx->m); ++bi) {
        const int64_t i0 = bi * simd::kGemmBlockM;
        multiplyBlock(*ctx->kt, a, ctx->a_ld, ctx->a_k_major, bp, c, i0,
                      std::min(i0 + simd::kGemmBlockM, ctx->m), ctx->n,
                      ctx->k, accumulate);
    }
}

/** Shared NT/NN batched driver: pack each group's shared B once
 *  (phase 1), then fan whole items over the pool (phase 2). */
void
gemmBatchedStreamB(const float *a, int64_t a_stride, const float *b,
                   int64_t b_stride, int64_t b_ld, bool b_k_major, float *c,
                   int64_t c_stride, int64_t count, int64_t m, int64_t n,
                   int64_t k, int64_t group, bool accumulate)
{
    if (count <= 0 || m <= 0 || n <= 0)
        return;
    SNIP_ASSERT(group >= 1 && count % group == 0,
                "batched GEMM: count must be a multiple of group");
    BatchedCtx ctx;
    ctx.kt = &simd::activeKernels();
    ctx.a = a;
    ctx.a_stride = a_stride;
    ctx.a_ld = k;
    ctx.a_k_major = false;
    ctx.b = b;
    ctx.b_stride = b_stride;
    ctx.b_ld = b_ld;
    ctx.b_k_major = b_k_major;
    ctx.c = c;
    ctx.c_stride = c_stride;
    ctx.count = count;
    ctx.m = m;
    ctx.n = n;
    ctx.k = k;
    ctx.group = group;
    ctx.accumulate = accumulate;
    if (k <= 0) {
        if (!accumulate)
            for (int64_t i = 0; i < count; ++i)
                std::memset(c + i * c_stride, 0,
                            sizeof(float) * static_cast<size_t>(m * n));
        return;
    }
    obs::Scope timed(telemetry::Timer::Gemm, trace::Category::Gemm,
                     "gemm_batched", "items", count, "m", m);
    telemetry::count(telemetry::Counter::GemmPackedCalls);
    telemetry::count(telemetry::Counter::GemmBatchedItems, count);
    telemetry::count(telemetry::Counter::GemmFlops,
                     2 * count * m * n * k);
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    const BatchedCtx *pc = &ctx;
    const int64_t groups = count / group;
    ctx.bp_stride = packStrips(n, kGemmPackNR) * kGemmPackNR * k;
    ctx.bp = arena.getFloats(static_cast<size_t>(groups * ctx.bp_stride));
    runtime::parallelFor(0, groups, 1, [pc](int64_t g0, int64_t g1) {
        for (int64_t g = g0; g < g1; ++g)
            pc->kt->packB(pc->b + g * pc->b_stride, pc->b_ld,
                          pc->b_k_major, pc->bp + g * pc->bp_stride, 0,
                          pc->n, pc->n, pc->k);
    });
    runtime::parallelFor(0, count, 1, [pc](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            runItemPacked(pc, pc->a + i * pc->a_stride,
                          pc->bp + (i / pc->group) * pc->bp_stride,
                          pc->c + i * pc->c_stride, pc->accumulate);
    });
}

/** One TN batch item through the packed pipeline into @p c (packs its
 *  own B — both TN operands change per item). */
void
runItemPackedTN(const BatchedCtx *ctx, const float *a, const float *b,
                float *c, bool accumulate)
{
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    float *bp = arena.getFloats(static_cast<size_t>(
        packStrips(ctx->n, kGemmPackNR) * kGemmPackNR * ctx->k));
    ctx->kt->packB(b, ctx->b_ld, ctx->b_k_major, bp, 0, ctx->n, ctx->n,
                   ctx->k);
    runItemPacked(ctx, a, bp, c, accumulate);
}

} // namespace

// ------------------------------------------------------- entry points

void
gemmNT(const float *a, const float *b, float *c, int64_t m, int64_t n,
       int64_t k, bool accumulate)
{
    gemmPackedNT(a, m, k, nullptr, b, n, nullptr, nullptr, c, accumulate);
}

void
gemmNN(const float *a, const float *b, float *c, int64_t m, int64_t n,
       int64_t k, bool accumulate)
{
    gemmPackedNN(a, m, k, nullptr, b, n, nullptr, nullptr, c, accumulate);
}

void
gemmTN(const float *a, const float *b, float *c, int64_t m, int64_t n,
       int64_t k, bool accumulate)
{
    gemmPackedTN(a, m, k, nullptr, b, n, nullptr, c, accumulate);
}

void
gemmBatchedNT(const float *a, int64_t a_stride, const float *b,
              int64_t b_stride, float *c, int64_t c_stride, int64_t count,
              int64_t m, int64_t n, int64_t k, int64_t group,
              bool accumulate)
{
    gemmBatchedStreamB(a, a_stride, b, b_stride, /*b_ld=*/k,
                       /*b_k_major=*/false, c, c_stride, count, m, n, k,
                       group, accumulate);
}

void
gemmBatchedNN(const float *a, int64_t a_stride, const float *b,
              int64_t b_stride, float *c, int64_t c_stride, int64_t count,
              int64_t m, int64_t n, int64_t k, int64_t group,
              bool accumulate)
{
    gemmBatchedStreamB(a, a_stride, b, b_stride, /*b_ld=*/n,
                       /*b_k_major=*/true, c, c_stride, count, m, n, k,
                       group, accumulate);
}

void
gemmBatchedTN(const float *a, int64_t a_stride, const float *b,
              int64_t b_stride, float *c, int64_t c_stride, int64_t count,
              int64_t m, int64_t n, int64_t k, int64_t group,
              bool accumulate)
{
    if (count <= 0 || m <= 0 || n <= 0)
        return;
    SNIP_ASSERT(group >= 1 && count % group == 0,
                "batched GEMM: count must be a multiple of group");
    BatchedCtx ctx;
    ctx.kt = &simd::activeKernels();
    ctx.a = a;
    ctx.a_stride = a_stride;
    ctx.a_ld = m;
    ctx.a_k_major = true;
    ctx.b = b;
    ctx.b_stride = b_stride;
    ctx.b_ld = n;
    ctx.b_k_major = true;
    ctx.c = c;
    ctx.c_stride = c_stride;
    ctx.count = count;
    ctx.m = m;
    ctx.n = n;
    ctx.k = k;
    ctx.group = group;
    ctx.accumulate = accumulate;
    const int64_t groups = count / group;
    if (k <= 0) {
        if (!accumulate)
            for (int64_t g = 0; g < groups; ++g)
                std::memset(c + g * c_stride, 0,
                            sizeof(float) * static_cast<size_t>(m * n));
        return;
    }
    obs::Scope timed(telemetry::Timer::Gemm, trace::Category::Gemm,
                     "gemm_batched_grouped", "items", count, "m", m);
    telemetry::count(telemetry::Counter::GemmPackedCalls);
    telemetry::count(telemetry::Counter::GemmBatchedItems, count);
    telemetry::count(telemetry::Counter::GemmFlops,
                     2 * count * m * n * k);
    const BatchedCtx *pc = &ctx;
    // Workers own whole GROUPS: the items of a group reduce into the
    // group's shared C sequentially (each item's product is fully
    // formed in scratch, then added — the fixed per-kv-head order a
    // serial compute-then-scatter-add loop uses), so the reduction is
    // bit-identical for any thread count.
    runtime::parallelFor(0, groups, 1, [pc](int64_t g0, int64_t g1) {
        runtime::WorkspaceArena &arena =
            runtime::WorkspaceArena::forCurrentThread();
        for (int64_t g = g0; g < g1; ++g) {
            float *cg = pc->c + g * pc->c_stride;
            if (!pc->accumulate)
                std::memset(cg, 0,
                            sizeof(float) *
                                static_cast<size_t>(pc->m * pc->n));
            runtime::ArenaScope scope(arena);
            float *tmp = arena.getFloats(
                static_cast<size_t>(pc->m * pc->n));
            for (int64_t t = 0; t < pc->group; ++t) {
                const int64_t i = g * pc->group + t;
                const float *ai = pc->a + i * pc->a_stride;
                runItemPackedTN(pc, ai, pc->b + i * pc->b_stride, tmp,
                                /*accumulate=*/false);
                const int64_t numel = pc->m * pc->n;
                for (int64_t e = 0; e < numel; ++e)
                    cg[e] += tmp[e];
            }
        }
    });
}

void
gemmPackedNT(const float *a, int64_t m, int64_t k, const QuantConfig *aq,
             const float *b, int64_t n, const QuantConfig *bq,
             PackedWeightCache *bcache, float *c, bool accumulate)
{
    packedGemm(a, k, /*a_k_major=*/false, m, k, aq, b, k,
               /*b_k_major=*/false, n, k, bq, bcache, /*orient=*/0, c,
               m, n, k, accumulate);
}

void
gemmPackedNN(const float *a, int64_t m, int64_t k, const QuantConfig *aq,
             const float *b, int64_t n, const QuantConfig *bq,
             PackedWeightCache *bcache, float *c, bool accumulate)
{
    packedGemm(a, k, /*a_k_major=*/false, m, k, aq, b, n,
               /*b_k_major=*/true, k, n, bq, bcache, /*orient=*/1, c, m,
               n, k, accumulate);
}

void
gemmPackedTN(const float *a, int64_t m, int64_t k, const QuantConfig *aq,
             const float *b, int64_t n, const QuantConfig *bq, float *c,
             bool accumulate)
{
    packedGemm(a, m, /*a_k_major=*/true, k, m, aq, b, n,
               /*b_k_major=*/true, k, n, bq, /*bcache=*/nullptr,
               /*orient=*/0, c, m, n, k, accumulate);
}

// ---------------------------------------------------- Tensor wrappers

Tensor
matmulNT(const Tensor &x, const Tensor &w)
{
    SNIP_ASSERT(x.rank() == 2 && w.rank() == 2);
    SNIP_ASSERT(x.size(1) == w.size(1), "inner dimensions disagree");
    Tensor y(x.size(0), w.size(0));
    gemmNT(x.data(), w.data(), y.data(), x.size(0), w.size(0), x.size(1));
    return y;
}

Tensor
matmulNN(const Tensor &a, const Tensor &b)
{
    SNIP_ASSERT(a.rank() == 2 && b.rank() == 2);
    SNIP_ASSERT(a.size(1) == b.size(0), "inner dimensions disagree");
    Tensor y(a.size(0), b.size(1));
    gemmNN(a.data(), b.data(), y.data(), a.size(0), b.size(1), a.size(1));
    return y;
}

Tensor
matmulTN(const Tensor &a, const Tensor &b)
{
    SNIP_ASSERT(a.rank() == 2 && b.rank() == 2);
    SNIP_ASSERT(a.size(0) == b.size(0), "inner dimensions disagree");
    Tensor y(a.size(1), b.size(1));
    gemmTN(a.data(), b.data(), y.data(), a.size(1), b.size(1), a.size(0));
    return y;
}

Tensor
quantMatmulNT(const Tensor &x, const QuantConfig *xq, const Tensor &w,
              const QuantConfig *wq, PackedWeightCache *wcache)
{
    SNIP_ASSERT(x.rank() == 2 && w.rank() == 2);
    SNIP_ASSERT(x.size(1) == w.size(1), "inner dimensions disagree");
    Tensor y(x.size(0), w.size(0));
    gemmPackedNT(x.data(), x.size(0), x.size(1), xq, w.data(), w.size(0),
                 wq, wcache, y.data());
    return y;
}

Tensor
quantMatmulNN(const Tensor &dy, const QuantConfig *dq, const Tensor &w,
              const QuantConfig *wq, PackedWeightCache *wcache)
{
    SNIP_ASSERT(dy.rank() == 2 && w.rank() == 2);
    SNIP_ASSERT(dy.size(1) == w.size(0), "inner dimensions disagree");
    Tensor y(dy.size(0), w.size(1));
    gemmPackedNN(dy.data(), dy.size(0), dy.size(1), dq, w.data(),
                 w.size(1), wq, wcache, y.data());
    return y;
}

void
quantGemmTN(const Tensor &dy, const QuantConfig *dq, const Tensor &x,
            const QuantConfig *xq, Tensor &dw, bool accumulate)
{
    SNIP_ASSERT(dy.rank() == 2 && x.rank() == 2);
    SNIP_ASSERT(dy.size(0) == x.size(0), "inner dimensions disagree");
    SNIP_ASSERT(dw.rank() == 2 && dw.size(0) == dy.size(1) &&
                dw.size(1) == x.size(1));
    gemmPackedTN(dy.data(), dy.size(1), dy.size(0), dq, x.data(),
                 x.size(1), xq, dw.data(), accumulate);
}

} // namespace snip
