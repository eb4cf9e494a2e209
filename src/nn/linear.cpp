#include "nn/linear.h"

#include "quant/scaling.h"
#include "tensor/gemm.h"
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
Linear::plan(GemmKind kind, TensorRole role, const Tensor *operand)
{
    QuantPlan p;
    const Precision prec = scheme_.of(kind);
    // BF16 GEMMs are the high-precision reference: the FP32 master is
    // used directly (bf16 rounding of FP32 master weights is treated as
    // exact, as the paper treats its BF16 baseline).
    if (quantizer_ == nullptr || prec == Precision::BF16)
        return p;
    p.quantize = true;
    p.cfg = rolePolicy(prec, role);
    if (p.cfg.rounding == Rounding::Stochastic && operand != nullptr &&
        operand->numel() > 0)
        p.cfg.call_key = quantizer_->nextCallKey();
    return p;
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
    const QuantPlan xp = plan(GemmKind::Fwd, TensorRole::Activation, &x);
    const QuantPlan wp = plan(GemmKind::Fwd, TensorRole::Weight, &w_);
    Tensor y = quantMatmulNT(x, xp.config(), w_, wp.config(), activeCache());
    if (tap_)
        tap_->onForward(tap_idx_, y);
    return y;
}

void
Linear::forwardInference(const float *x, int64_t rows, float *y)
{
    const QuantPlan xp = plan(GemmKind::Fwd, TensorRole::Activation);
    const QuantPlan wp = plan(GemmKind::Fwd, TensorRole::Weight);
    // Decode must never draw from the training stream.
    SNIP_ASSERT(xp.cfg.rounding != Rounding::Stochastic &&
                    wp.cfg.rounding != Rounding::Stochastic,
                "stochastic-rounding operands are training-only (", name_,
                ")");
    // A decode row must quantize like the same row of a full-sequence
    // activation, which holds only when no scaling region spans rows.
    const Granularity gran = xp.cfg.scaling.granularity;
    SNIP_ASSERT(!xp.quantize || gran == Granularity::Tilewise ||
                    gran == Granularity::Rowwise,
                "inference needs row-local activation scaling (", name_,
                " uses ", granularityName(gran), ")");
    // Passing the cache explicitly opts in whatever the implicit-reuse
    // state: weight() and invalidateWeightPacks() stale it on mutation.
    gemmPackedNT(x, rows, inFeatures(), xp.config(), w_.data(),
                 outFeatures(), wp.config(), &w_packs_, y);
}

Tensor
Linear::backward(const Tensor &dy)
{
    SNIP_ASSERT(dy.rank() == 2 && dy.size(1) == outFeatures(),
                "bad grad shape for ", name_);
    SNIP_ASSERT(saved_x_.numel() > 0, "backward before forward in ",
                name_);

    // dX = dY W (Dgrad GEMM).
    const QuantPlan dgp =
        plan(GemmKind::Dgrad, TensorRole::OutputGrad, &dy);
    const QuantPlan wp = plan(GemmKind::Dgrad, TensorRole::Weight, &w_);
    Tensor dx = quantMatmulNN(dy, dgp.config(), w_, wp.config(),
                              activeCache());

    // dW = dY^T X (Wgrad GEMM), accumulated straight into grad_w_ (one
    // add of the full k-sum per element — bit-identical to
    // materializing dW and adding it).
    const QuantPlan wgp =
        plan(GemmKind::Wgrad, TensorRole::OutputGrad, &dy);
    const QuantPlan xp =
        plan(GemmKind::Wgrad, TensorRole::Activation, &saved_x_);
    quantGemmTN(dy, wgp.config(), saved_x_, xp.config(), grad_w_,
                /*accumulate=*/true);
    if (tap_)
        tap_->onBackward(tap_idx_, dy, dx);
    return dx;
}

} // namespace snip
