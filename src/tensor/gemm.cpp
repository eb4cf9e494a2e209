#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "quant/codec.h"
#include "quant/scaling.h"
#include "runtime/env_config.h"
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

/// Number of kGemmBlockM-row blocks (the parallelFor unit for all
/// paths: every worker owns whole rows of C, so outputs are disjoint
/// and the per-element accumulation order never depends on thread
/// count).
int64_t
mBlocks(int64_t m)
{
    return (m + simd::kGemmBlockM - 1) / simd::kGemmBlockM;
}

// ------------------------------------------------------- legacy path

/** One legacy gemmBlocked invocation; the parallelFor lambda captures
 *  only a pointer to this (fits every std::function SBO, so the call
 *  allocates nothing). */
struct LegacyCtx
{
    simd::GemmBlockFn block_fn;
    const float *a;
    const float *b;
    float *c;
    int64_t m, n, k;
    bool accumulate;
};

/**
 * Pre-packing driver, kept verbatim behind SNIP_GEMM_PACK=off (and for
 * shapes below the Auto threshold): fan M-blocks of C out over the
 * thread pool and hand each block to the dispatched backend
 * microkernel. Zeroing happens here (backend-independent) so the
 * kernels always accumulate.
 */
void
gemmBlockedLegacy(simd::GemmBlockFn block_fn, const float *a,
                  const float *b, float *c, int64_t m, int64_t n,
                  int64_t k, bool accumulate)
{
    obs::Scope timed(telemetry::Timer::Gemm, trace::Category::Gemm, "gemm",
                     "m", m, "n", n);
    telemetry::count(telemetry::Counter::GemmLegacyCalls);
    telemetry::count(telemetry::Counter::GemmFlops, 2 * m * n * k);
    LegacyCtx ctx{block_fn, a, b, c, m, n, k, accumulate};
    const LegacyCtx *pc = &ctx;
    runtime::parallelFor(0, mBlocks(m), 1, [pc](int64_t b0, int64_t b1) {
        for (int64_t bi = b0; bi < b1; ++bi) {
            const int64_t i0 = bi * simd::kGemmBlockM;
            const int64_t i1 =
                std::min(i0 + simd::kGemmBlockM, pc->m);
            if (!pc->accumulate)
                std::memset(pc->c + i0 * pc->n, 0,
                            sizeof(float) *
                                static_cast<size_t>((i1 - i0) * pc->n));
            pc->block_fn(pc->a, pc->b, pc->c, i0, i1, pc->m, pc->n,
                         pc->k);
        }
    });
}

// -------------------------------------------------------------- mode

std::atomic<int> g_pack_mode{-1}; // -1 = unresolved

bool
parsePackMode(const char *spec, GemmPackMode *out)
{
    if (spec == nullptr || *spec == '\0' ||
        std::strcmp(spec, "auto") == 0) {
        *out = GemmPackMode::Auto;
        return true;
    }
    if (std::strcmp(spec, "on") == 0) {
        *out = GemmPackMode::On;
        return true;
    }
    if (std::strcmp(spec, "off") == 0) {
        *out = GemmPackMode::Off;
        return true;
    }
    return false;
}

// ---------------------------------------------- fused-quant plumbing

/** Region grid of a scaling spec on a rows x cols source matrix;
 *  mirrors forEachRegion() (quant/scaling.cpp) exactly. */
struct RegionGeom
{
    int64_t rb, cb;  ///< region edge in rows / cols
    int64_t nrr, ncr; ///< region-grid extents
};

RegionGeom
regionGeom(int64_t rows, int64_t cols, const ScalingSpec &spec)
{
    const int64_t nb = std::max<int64_t>(1, spec.block);
    RegionGeom g{rows, cols, 1, 1};
    switch (spec.granularity) {
        case Granularity::Tensorwise:
            break;
        case Granularity::Rowwise:
            g.rb = 1;
            break;
        case Granularity::Columnwise:
            g.cb = 1;
            break;
        case Granularity::Blockwise:
            g.rb = nb;
            g.cb = nb;
            break;
        case Granularity::Tilewise:
            g.rb = 1;
            g.cb = nb;
            break;
    }
    g.rb = std::max<int64_t>(1, std::min(g.rb, rows));
    g.cb = std::max<int64_t>(1, std::min(g.cb, cols));
    g.nrr = (rows + g.rb - 1) / g.rb;
    g.ncr = (cols + g.cb - 1) / g.cb;
    return g;
}

struct ScaleCtx
{
    const simd::KernelTable *kt;
    const float *p;
    int64_t rows, cols;
    RegionGeom geom;
    double fmt_max;
    float *scale;
    float *inv;
};

/**
 * Per-region scale pass: the same max-|x| reduction and float
 * narrowing the materializing quantizer performs (quant/quantizer.cpp),
 * so fused quantize-on-pack is bit-identical to quantize-then-pack.
 * Regions are independent, so any parallel partition is deterministic.
 */
void
computeRegionScales(const simd::KernelTable &kt, const float *p,
                    int64_t rows, int64_t cols, const RegionGeom &geom,
                    double fmt_max, float *scale, float *inv)
{
    ScaleCtx ctx{&kt, p, rows, cols, geom, fmt_max, scale, inv};
    const ScaleCtx *pc = &ctx;
    runtime::parallelFor(
        0, geom.nrr * geom.ncr, 8, [pc](int64_t g0, int64_t g1) {
            const RegionGeom &g = pc->geom;
            for (int64_t reg = g0; reg < g1; ++reg) {
                const int64_t r0 = (reg / g.ncr) * g.rb;
                const int64_t r1 = std::min(pc->rows, r0 + g.rb);
                const int64_t c0 = (reg % g.ncr) * g.cb;
                const int64_t c1 = std::min(pc->cols, c0 + g.cb);
                double max_abs = 0.0;
                for (int64_t r = r0; r < r1; ++r) {
                    max_abs = std::max(
                        max_abs,
                        static_cast<double>(pc->kt->maxAbs(
                            pc->p + r * pc->cols + c0, c1 - c0)));
                }
                const double s = regionScale(max_abs, pc->fmt_max);
                pc->scale[reg] = static_cast<float>(s);
                pc->inv[reg] = static_cast<float>(1.0 / s);
            }
        });
}

/** A fully-resolved fused-quant operand: grid constants plus bound
 *  scale buffers. pq points into this object — never copy it. */
struct OperandQuant
{
    QuantGrid grid;
    const QuantConfig *cfg = nullptr;
    simd::PackQuant pq;

    OperandQuant() = default;
    OperandQuant(const OperandQuant &) = delete;
    OperandQuant &operator=(const OperandQuant &) = delete;
};

/** Bind @p oq to (source, cfg), computing scales into the caller's
 *  buffers (arena or cache vectors). */
void
setupOperandQuant(OperandQuant &oq, const simd::KernelTable &kt,
                  const QuantConfig &cfg, const float *src, int64_t rows,
                  int64_t cols, float *scale, float *inv)
{
    SNIP_ASSERT(cfg.rounding == Rounding::Nearest,
                "stochastic rounding cannot fuse into a pack; "
                "materialize the operand first");
    SNIP_ASSERT(cfg.format.name != "bf16",
                "bf16 operands take the passthrough path");
    const RegionGeom geom = regionGeom(rows, cols, cfg.scaling);
    computeRegionScales(kt, src, rows, cols, geom,
                        cfg.format.maxValue(), scale, inv);
    oq.grid = quantGrid(cfg.format);
    oq.cfg = &cfg;
    oq.pq.fmt = &cfg.format;
    oq.pq.grid = &oq.grid;
    oq.pq.scale = scale;
    oq.pq.inv_scale = inv;
    oq.pq.row_block = geom.rb;
    oq.pq.col_block = geom.cb;
    oq.pq.regions_per_row = geom.ncr;
}

int64_t
regionCount(int64_t rows, int64_t cols, const ScalingSpec &spec)
{
    const RegionGeom g = regionGeom(rows, cols, spec);
    return g.nrr * g.ncr;
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
    const simd::PackQuant *aq = nullptr;
    const simd::PackQuant *bq = nullptr;
};

/** Pack the whole B operand into bp_mut, one strip per parallel
 *  unit (pure copies + grid snaps: deterministic under any
 *  partition). */
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
                           ctx->bp_mut, j0, j1, ctx->n, ctx->k,
                           ctx->bq);
        });
}

/**
 * The packed loop nest: every M-block packs its A panel into the
 * executing thread's arena (fused-quantizing when configured), then
 * streams the shared packed B panel through the register-tiled block
 * microkernel. M-block ownership and the per-element k-ascending
 * accumulation are identical for any thread count.
 */
void
gemmPhase(const PackedCtx *ctx)
{
    runtime::parallelFor(
        0, mBlocks(ctx->m), 1, [ctx](int64_t b0, int64_t b1) {
            for (int64_t bi = b0; bi < b1; ++bi) {
                const int64_t i0 = bi * simd::kGemmBlockM;
                const int64_t i1 =
                    std::min(i0 + simd::kGemmBlockM, ctx->m);
                const int64_t mb = i1 - i0;
                runtime::WorkspaceArena &arena =
                    runtime::WorkspaceArena::forCurrentThread();
                runtime::ArenaScope scope(arena);
                // +8: PackAFn transpose-store headroom (kernels.h).
                float *ap = arena.getFloats(static_cast<size_t>(
                    packStrips(mb, kGemmPackMR) * kGemmPackMR *
                        ctx->k +
                    8));
                ctx->kt->packA(ctx->a, ctx->a_ld, ctx->a_k_major, ap,
                               i0, i1, ctx->k, ctx->aq);
                if (!ctx->accumulate)
                    std::memset(
                        ctx->c + i0 * ctx->n, 0,
                        sizeof(float) *
                            static_cast<size_t>(mb * ctx->n));
                ctx->kt->gemmPackedBlock(ap, ctx->bp,
                                         ctx->c + i0 * ctx->n, ctx->n,
                                         mb, ctx->n, ctx->k);
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
    /** One packed panel + its scale tables for one GEMM orientation of
     *  the weight (0 = NT B operand, 1 = NN B operand). */
    struct Slot
    {
        std::vector<float> packed, scale, inv;
        bool valid = false;
        uint64_t epoch = 0;
        uint64_t key = 0;
        int64_t n = 0, k = 0;
        int64_t src_rows = 0, src_cols = 0;
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

uint64_t
weightPackEpoch()
{
    return g_weight_epoch.load(std::memory_order_acquire);
}

namespace {

/**
 * Return the packed B panel for a cached weight, (re)building it when
 * stale. The scale pass is shared with the sibling orientation when
 * its policy and epoch agree — the weight is then quantized once per
 * step even though both orientations pack it. Buffers are retained
 * across epochs, so a steady-state repack allocates nothing.
 */
const float *
cachedPackB(PackedWeightCache *cache, int orient, PackedCtx *ctx,
            const QuantConfig *cfg, int64_t src_rows, int64_t src_cols)
{
    PackedWeightCache::Impl &impl = cache->impl();
    util::MutexLock lk(impl.mu);
    PackedWeightCache::Impl::Slot &slot = impl.slots[orient];
    const uint64_t epoch =
        g_weight_epoch.load(std::memory_order_acquire);
    const uint64_t key = policyKey(cfg);
    if (slot.valid && slot.epoch == epoch && slot.key == key &&
        slot.n == ctx->n && slot.k == ctx->k) {
        telemetry::count(telemetry::Counter::PackCacheHits);
        return slot.packed.data();
    }
    telemetry::count(telemetry::Counter::PackCacheRebuilds);
    slot.packed.resize(static_cast<size_t>(
        packStrips(ctx->n, kGemmPackNR) * kGemmPackNR * ctx->k));
    OperandQuant bq;
    if (cfg != nullptr) {
        const int64_t nreg =
            regionCount(src_rows, src_cols, cfg->scaling);
        slot.scale.resize(static_cast<size_t>(nreg));
        slot.inv.resize(static_cast<size_t>(nreg));
        PackedWeightCache::Impl::Slot &other = impl.slots[1 - orient];
        if (other.valid && other.epoch == epoch && other.key == key &&
            other.src_rows == src_rows && other.src_cols == src_cols &&
            other.scale.size() == slot.scale.size()) {
            // Sibling orientation already quantized this weight under
            // the same policy this step: reuse its scale pass.
            std::copy(other.scale.begin(), other.scale.end(),
                      slot.scale.begin());
            std::copy(other.inv.begin(), other.inv.end(),
                      slot.inv.begin());
            const RegionGeom geom =
                regionGeom(src_rows, src_cols, cfg->scaling);
            bq.grid = quantGrid(cfg->format);
            bq.cfg = cfg;
            bq.pq = {&cfg->format, &bq.grid,      slot.scale.data(),
                     slot.inv.data(), geom.rb,    geom.cb,
                     geom.ncr};
        } else {
            setupOperandQuant(bq, *ctx->kt, *cfg, ctx->b, src_rows,
                              src_cols, slot.scale.data(),
                              slot.inv.data());
        }
        ctx->bq = &bq.pq;
    }
    ctx->bp_mut = slot.packed.data();
    packBPhase(ctx);
    ctx->bq = nullptr;
    ctx->bp_mut = nullptr;
    slot.valid = true;
    slot.epoch = epoch;
    slot.key = key;
    slot.n = ctx->n;
    slot.k = ctx->k;
    slot.src_rows = src_rows;
    slot.src_cols = src_cols;
    return slot.packed.data();
}

/**
 * Shared packed driver. Source layouts per variant:
 *   NT: A = src[M,K] (row-major), B = src[N,K]  -> b_k_major = false
 *   NN: A = src[M,K],             B = src[K,N]  -> b_k_major = true
 *   TN: A = src[K,M] (a_k_major), B = src[K,N]
 * (a_rows, a_cols) / (b_rows, b_cols) are SOURCE dims — the geometry
 * fake quantization is defined on.
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

    OperandQuant aq;
    if (aq_cfg != nullptr) {
        const int64_t nreg = regionCount(a_rows, a_cols, aq_cfg->scaling);
        float *scale = arena.getFloats(static_cast<size_t>(nreg));
        float *inv = arena.getFloats(static_cast<size_t>(nreg));
        setupOperandQuant(aq, kt, *aq_cfg, a, a_rows, a_cols, scale,
                          inv);
        ctx.aq = &aq.pq;
    }

    if (bcache != nullptr) {
        ctx.bp = cachedPackB(bcache, orient, &ctx, bq_cfg, b_rows,
                             b_cols);
    } else {
        OperandQuant bq;
        if (bq_cfg != nullptr) {
            const int64_t nreg =
                regionCount(b_rows, b_cols, bq_cfg->scaling);
            float *scale = arena.getFloats(static_cast<size_t>(nreg));
            float *inv = arena.getFloats(static_cast<size_t>(nreg));
            setupOperandQuant(bq, kt, *bq_cfg, b, b_rows, b_cols, scale,
                              inv);
            ctx.bq = &bq.pq;
        }
        float *bp = arena.getFloats(static_cast<size_t>(
            packStrips(n, kGemmPackNR) * kGemmPackNR * k));
        ctx.bp_mut = bp;
        packBPhase(&ctx);
        ctx.bq = nullptr;
        ctx.bp = bp;
    }
    gemmPhase(&ctx);
}

// ------------------------------------------------- strided-batch path

/** One strided-batch GEMM invocation (lambdas capture a pointer). */
struct BatchedCtx
{
    const simd::KernelTable *kt;
    simd::GemmBlockFn block_fn; ///< per-item legacy kernel
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
    bool packed;
    float *bp = nullptr;    ///< per-group packed B panels (NT/NN)
    int64_t bp_stride = 0;
};

/** One batch item on the legacy kernels: the same zero + block-kernel
 *  sequence gemmBlockedLegacy runs, serial over the item's M-blocks
 *  (the worker owns the whole item). */
void
runItemLegacy(const BatchedCtx *ctx, const float *a, const float *b,
              float *c, bool accumulate)
{
    for (int64_t bi = 0; bi < mBlocks(ctx->m); ++bi) {
        const int64_t i0 = bi * simd::kGemmBlockM;
        const int64_t i1 = std::min(i0 + simd::kGemmBlockM, ctx->m);
        if (!accumulate)
            std::memset(c + i0 * ctx->n, 0,
                        sizeof(float) *
                            static_cast<size_t>((i1 - i0) * ctx->n));
        ctx->block_fn(a, b, c, i0, i1, ctx->m, ctx->n, ctx->k);
    }
}

/** One batch item through the packed microkernel against an already-
 *  packed B panel: per M-block the same packA + zero + block stream
 *  gemmPhase issues, so per-element accumulation order matches the
 *  per-item gemmPacked* entry points exactly. */
void
runItemPacked(const BatchedCtx *ctx, const float *a, const float *bp,
              float *c, bool accumulate)
{
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    for (int64_t bi = 0; bi < mBlocks(ctx->m); ++bi) {
        const int64_t i0 = bi * simd::kGemmBlockM;
        const int64_t i1 = std::min(i0 + simd::kGemmBlockM, ctx->m);
        const int64_t mb = i1 - i0;
        runtime::ArenaScope scope(arena);
        // +8: PackAFn transpose-store headroom (kernels.h).
        float *ap = arena.getFloats(static_cast<size_t>(
            packStrips(mb, kGemmPackMR) * kGemmPackMR * ctx->k + 8));
        ctx->kt->packA(a, ctx->a_ld, ctx->a_k_major, ap, i0, i1, ctx->k,
                       nullptr);
        if (!accumulate)
            std::memset(c + i0 * ctx->n, 0,
                        sizeof(float) *
                            static_cast<size_t>(mb * ctx->n));
        ctx->kt->gemmPackedBlock(ap, bp, c + i0 * ctx->n, ctx->n, mb,
                                 ctx->n, ctx->k);
    }
}

/** Shared NT/NN batched driver: pack each group's shared B once
 *  (phase 1), then fan whole items over the pool (phase 2). */
void
gemmBatchedStreamB(simd::GemmBlockFn block_fn, const float *a,
                   int64_t a_stride, const float *b, int64_t b_stride,
                   int64_t b_ld, bool b_k_major, float *c,
                   int64_t c_stride, int64_t count, int64_t m, int64_t n,
                   int64_t k, int64_t group, bool accumulate)
{
    if (count <= 0 || m <= 0 || n <= 0)
        return;
    SNIP_ASSERT(group >= 1 && count % group == 0,
                "batched GEMM: count must be a multiple of group");
    BatchedCtx ctx;
    ctx.kt = &simd::activeKernels();
    ctx.block_fn = block_fn;
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
    ctx.packed = gemmBatchedPackEnabled(count, m, n, k);

    obs::Scope timed(telemetry::Timer::Gemm, trace::Category::Gemm,
                     "gemm_batched", "items", count, "m", m);
    telemetry::count(ctx.packed ? telemetry::Counter::GemmPackedCalls
                                : telemetry::Counter::GemmLegacyCalls);
    telemetry::count(telemetry::Counter::GemmBatchedItems, count);
    telemetry::count(telemetry::Counter::GemmFlops,
                     2 * count * m * n * k);
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    const BatchedCtx *pc = &ctx;
    if (ctx.packed) {
        const int64_t groups = count / group;
        ctx.bp_stride = packStrips(n, kGemmPackNR) * kGemmPackNR * k;
        ctx.bp =
            arena.getFloats(static_cast<size_t>(groups * ctx.bp_stride));
        runtime::parallelFor(0, groups, 1, [pc](int64_t g0, int64_t g1) {
            for (int64_t g = g0; g < g1; ++g)
                pc->kt->packB(pc->b + g * pc->b_stride, pc->b_ld,
                              pc->b_k_major,
                              pc->bp + g * pc->bp_stride, 0, pc->n,
                              pc->n, pc->k, nullptr);
        });
    }
    runtime::parallelFor(0, count, 1, [pc](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            const float *ai = pc->a + i * pc->a_stride;
            float *ci = pc->c + i * pc->c_stride;
            if (pc->packed)
                runItemPacked(pc, ai,
                              pc->bp + (i / pc->group) * pc->bp_stride,
                              ci, pc->accumulate);
            else
                runItemLegacy(pc, ai,
                              pc->b + (i / pc->group) * pc->b_stride,
                              ci, pc->accumulate);
        }
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
                   ctx->k, nullptr);
    runItemPacked(ctx, a, bp, c, accumulate);
}

} // namespace

// --------------------------------------------------------- mode API

GemmPackMode
gemmPackMode()
{
    int mode = g_pack_mode.load(std::memory_order_acquire);
    if (mode < 0) {
        GemmPackMode m = GemmPackMode::Auto;
        const char *spec =
            runtime::envConfig().gemmPack().cstrOrNull();
        if (!parsePackMode(spec, &m)) {
            warn("unknown SNIP_GEMM_PACK value '", spec,
                 "' (expected auto|on|off); using auto");
            m = GemmPackMode::Auto;
        }
        mode = static_cast<int>(m);
        g_pack_mode.store(mode, std::memory_order_release);
    }
    return static_cast<GemmPackMode>(mode);
}

bool
setGemmPackModeByName(const char *name)
{
    GemmPackMode m;
    if (!parsePackMode(name, &m))
        return false;
    g_pack_mode.store(static_cast<int>(m), std::memory_order_release);
    return true;
}

bool
gemmPackEnabled(int64_t m, int64_t n, int64_t k)
{
    switch (gemmPackMode()) {
        case GemmPackMode::Off:
            return false;
        case GemmPackMode::On:
            return m > 0 && n > 0 && k > 0;
        case GemmPackMode::Auto:
            break;
    }
    // Packing copies O(MK + NK) to save on the O(MNK) streaming; below
    // this threshold the copy dominates and the legacy path wins.
    return m >= 4 && n >= kGemmPackNR && k >= 32 &&
           m * n * k >= (int64_t{1} << 18);
}

bool
gemmBatchedPackEnabled(int64_t count, int64_t m, int64_t n, int64_t k)
{
    switch (gemmPackMode()) {
        case GemmPackMode::Off:
            return false;
        case GemmPackMode::On:
            return count > 0 && m > 0 && n > 0 && k > 0;
        case GemmPackMode::Auto:
            break;
    }
    // The amortization unit is the WHOLE batch: the pack copies
    // O(count*(mk + nk)) to save on O(count*mnk) streaming, so a batch
    // of per-head attention GEMMs — each too small to pack alone —
    // clears the same work threshold the single-GEMM heuristic uses.
    // The per-item floors only keep degenerate panels (k or n of 1-4)
    // off the packed kernels, where strip padding would dominate.
    return m >= 4 && n >= 8 && k >= 8 &&
           count * m * n * k >= (int64_t{1} << 18);
}

// ------------------------------------------------------- entry points

void
gemmNT(const float *a, const float *b, float *c, int64_t m, int64_t n,
       int64_t k, bool accumulate)
{
    if (gemmPackEnabled(m, n, k)) {
        gemmPackedNT(a, m, k, nullptr, b, n, nullptr, nullptr, c,
                     accumulate);
        return;
    }
    gemmBlockedLegacy(simd::activeKernels().gemmNtBlock, a, b, c, m, n,
                      k, accumulate);
}

void
gemmNN(const float *a, const float *b, float *c, int64_t m, int64_t n,
       int64_t k, bool accumulate)
{
    if (gemmPackEnabled(m, n, k)) {
        gemmPackedNN(a, m, k, nullptr, b, n, nullptr, nullptr, c,
                     accumulate);
        return;
    }
    gemmBlockedLegacy(simd::activeKernels().gemmNnBlock, a, b, c, m, n,
                      k, accumulate);
}

void
gemmTN(const float *a, const float *b, float *c, int64_t m, int64_t n,
       int64_t k, bool accumulate)
{
    if (gemmPackEnabled(m, n, k)) {
        gemmPackedTN(a, m, k, nullptr, b, n, nullptr, c, accumulate);
        return;
    }
    gemmBlockedLegacy(simd::activeKernels().gemmTnBlock, a, b, c, m, n,
                      k, accumulate);
}

void
gemmBatchedNT(const float *a, int64_t a_stride, const float *b,
              int64_t b_stride, float *c, int64_t c_stride, int64_t count,
              int64_t m, int64_t n, int64_t k, int64_t group,
              bool accumulate)
{
    gemmBatchedStreamB(simd::activeKernels().gemmNtBlock, a, a_stride, b,
                       b_stride, /*b_ld=*/k, /*b_k_major=*/false, c,
                       c_stride, count, m, n, k, group, accumulate);
}

void
gemmBatchedNN(const float *a, int64_t a_stride, const float *b,
              int64_t b_stride, float *c, int64_t c_stride, int64_t count,
              int64_t m, int64_t n, int64_t k, int64_t group,
              bool accumulate)
{
    gemmBatchedStreamB(simd::activeKernels().gemmNnBlock, a, a_stride, b,
                       b_stride, /*b_ld=*/n, /*b_k_major=*/true, c,
                       c_stride, count, m, n, k, group, accumulate);
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
    ctx.block_fn = ctx.kt->gemmTnBlock;
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
    ctx.packed = gemmBatchedPackEnabled(count, m, n, k);
    obs::Scope timed(telemetry::Timer::Gemm, trace::Category::Gemm,
                     "gemm_batched_grouped", "items", count, "m", m);
    telemetry::count(ctx.packed ? telemetry::Counter::GemmPackedCalls
                                : telemetry::Counter::GemmLegacyCalls);
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
                const float *bi = pc->b + i * pc->b_stride;
                if (pc->packed)
                    runItemPackedTN(pc, ai, bi, tmp,
                                    /*accumulate=*/false);
                else
                    runItemLegacy(pc, ai, bi, tmp,
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
