#include "nn/linear.h"

#include <cstring>

#include "quant/scaling.h"
#include "runtime/workspace_arena.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace snip {

Linear::Linear(std::string name, int64_t out_features, int64_t in_features,
               Rng &rng, float init_std, FakeQuantizer *quantizer)
    : name_(std::move(name)),
      w_(Tensor::randn({out_features, in_features}, rng, init_std)),
      grad_w_(out_features, in_features),
      quantizer_(quantizer)
{
}

Linear::QuantPlan
Linear::plan(GemmKind kind, TensorRole role) const
{
    QuantPlan p;
    const Precision prec = scheme_.of(kind);
    // BF16 GEMMs are the high-precision reference: the FP32 master is
    // used directly (bf16 rounding of FP32 master weights is treated as
    // exact, as the paper treats its BF16 baseline).
    if (quantizer_ == nullptr || prec == Precision::BF16)
        return p;
    p.cfg = rolePolicy(prec, role);
    if (p.cfg.rounding == Rounding::Stochastic)
        p.materialize = true; // RNG stream order forbids fusing
    else
        p.fused = true;
    return p;
}

const Tensor &
Linear::packedSrc(const Tensor &t, const QuantPlan &plan, Tensor &storage,
                  const QuantConfig **fused)
{
    if (plan.materialize) {
        storage = quantizer_->quantize(t, plan.cfg);
        *fused = nullptr;
        return storage;
    }
    *fused = plan.fusedCfg();
    return t;
}

PackedWeightCache *
Linear::activeCache()
{
    return w_packs_.implicitCachingActive() ? &w_packs_ : nullptr;
}

Tensor
Linear::forward(const Tensor &x)
{
    SNIP_ASSERT(x.rank() == 2 && x.size(1) == inFeatures(),
                "bad input shape for ", name_);
    saved_x_ = x;
    const QuantPlan xp = plan(GemmKind::Fwd, TensorRole::Activation);
    const QuantPlan wp = plan(GemmKind::Fwd, TensorRole::Weight);
    Tensor xs;
    const QuantConfig *xq = nullptr;
    const Tensor &xa = packedSrc(x, xp, xs, &xq);
    Tensor y = quantMatmulNT(xa, xq, w_, wp.fusedCfg(), activeCache());
    if (tap_)
        tap_->onForward(tap_idx_, x, w_, y);
    return y;
}

void
Linear::forwardInference(const float *x, int64_t rows, float *y)
{
    const int64_t in = inFeatures();
    const int64_t out = outFeatures();
    const QuantPlan xp = plan(GemmKind::Fwd, TensorRole::Activation);
    const QuantPlan wp = plan(GemmKind::Fwd, TensorRole::Weight);
    SNIP_ASSERT(!wp.materialize,
                "stochastic-rounding weights are training-only (", name_,
                ")");
    // Passing the cache explicitly opts in whatever the implicit-reuse
    // state: weight() and invalidateWeightPacks() stale it on mutation.
    if (!xp.fused && !xp.materialize) {
        gemmPackedNT(x, rows, in, nullptr, w_.data(), out, wp.fusedCfg(),
                     &w_packs_, y);
        return;
    }

    // Quantize the activation rows into arena scratch, replicating
    // FakeQuantizer::quantizeInPlace exactly for the row-local
    // granularities (a decode row must quantize identically to the
    // same row inside a full-sequence activation, which only holds
    // when no region spans rows). Quantizing here rather than on the
    // pack keeps thin decode GEMMs on the pack-free rows kernel.
    SNIP_ASSERT(xp.cfg.rounding == Rounding::Nearest,
                "stochastic-rounding activations are training-only (",
                name_, ")");
    const Granularity gran = xp.cfg.scaling.granularity;
    SNIP_ASSERT(gran == Granularity::Tilewise ||
                    gran == Granularity::Rowwise,
                "inference needs row-local activation scaling (", name_,
                " uses ", granularityName(gran), ")");
    const int64_t nb =
        gran == Granularity::Tilewise
            ? std::max<int64_t>(1, xp.cfg.scaling.block)
            : in;
    const simd::KernelTable &kt = simd::activeKernels();
    const QuantGrid grid = quantGrid(xp.cfg.format);
    const double fmt_max = xp.cfg.format.maxValue();

    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    float *xq = arena.getFloats(static_cast<size_t>(rows * in));
    std::memcpy(xq, x, static_cast<size_t>(rows * in) * sizeof(float));
    for (int64_t r = 0; r < rows; ++r) {
        float *row = xq + r * in;
        for (int64_t c0 = 0; c0 < in; c0 += nb) {
            const int64_t len = std::min(nb, in - c0);
            const double max_abs =
                static_cast<double>(kt.maxAbs(row + c0, len));
            const double scale = regionScale(max_abs, fmt_max);
            kt.quantizeNearest(row + c0, len, xp.cfg.format, grid,
                               static_cast<float>(scale),
                               static_cast<float>(1.0 / scale));
        }
    }
    gemmPackedNT(xq, rows, in, nullptr, w_.data(), out, wp.fusedCfg(),
                 &w_packs_, y);
}

Tensor
Linear::backward(const Tensor &dy)
{
    SNIP_ASSERT(dy.rank() == 2 && dy.size(1) == outFeatures(),
                "bad grad shape for ", name_);
    SNIP_ASSERT(saved_x_.numel() > 0, "backward before forward in ",
                name_);

    // dX = dY W (Dgrad GEMM).
    const QuantPlan dgp = plan(GemmKind::Dgrad, TensorRole::OutputGrad);
    const QuantPlan wp = plan(GemmKind::Dgrad, TensorRole::Weight);
    Tensor dys;
    const QuantConfig *dq = nullptr;
    const Tensor &dya = packedSrc(dy, dgp, dys, &dq);
    Tensor dx = quantMatmulNN(dya, dq, w_, wp.fusedCfg(), activeCache());

    // dW = dY^T X (Wgrad GEMM). Without a tap the GEMM accumulates
    // straight into grad_w_ (one add of the full k-sum per element —
    // bit-identical to materializing dW and adding it).
    const QuantPlan wgp = plan(GemmKind::Wgrad, TensorRole::OutputGrad);
    const QuantPlan xp = plan(GemmKind::Wgrad, TensorRole::Activation);
    Tensor dyws;
    const QuantConfig *dwq = nullptr;
    const Tensor &dyw = packedSrc(dy, wgp, dyws, &dwq);
    if (tap_) {
        // The tap observes the dW increment, so materialize it.
        Tensor dw(outFeatures(), inFeatures());
        quantGemmTN(dyw, dwq, saved_x_, xp.fusedCfg(), dw,
                    /*accumulate=*/false);
        addInPlace(grad_w_, dw);
        tap_->onBackward(tap_idx_, dy, dx, dw);
        return dx;
    }
    quantGemmTN(dyw, dwq, saved_x_, xp.fusedCfg(), grad_w_,
                /*accumulate=*/true);
    return dx;
}

} // namespace snip
