#include "nn/linear.h"

#include "quant/scaling.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "util/rng.h"

namespace snip {

namespace {

/** Most layers one group holds (Q, K and V). */
constexpr int kMaxGroup = 3;

} // namespace

/** One GEMM of a group, planned on the calling thread. */
struct Linear::GemmItem
{
    GemmKind kind = GemmKind::Fwd;
    const Tensor *a = nullptr; ///< X (Fwd) or dY (Dgrad, Wgrad)
    const Tensor *b = nullptr; ///< W (Fwd, Dgrad) or the saved X (Wgrad)
    QuantPlan ap, bp;
    PackedWeightCache *cache = nullptr;
    float *c = nullptr; ///< Y, dX, or the accumulated dW

    void
    run() const
    {
        switch (kind) {
            case GemmKind::Fwd: // Y = X W^T
                gemmPackedNT(a->data(), a->size(0), a->size(1), ap.config(),
                             b->data(), b->size(0), bp.config(), cache, c);
                break;
            case GemmKind::Dgrad: // dX = dY W
                gemmPackedNN(a->data(), a->size(0), a->size(1), ap.config(),
                             b->data(), b->size(1), bp.config(), cache, c);
                break;
            case GemmKind::Wgrad:
                // dW += dY^T X, accumulated straight into grad_w_ (one
                // add of the full k-sum per element — bit-identical to
                // materializing dW and adding it).
                gemmPackedTN(a->data(), a->size(1), a->size(0), ap.config(),
                             b->data(), b->size(1), bp.config(), c,
                             /*accumulate=*/true);
                break;
        }
    }
};

/** The GEMMs of one group. The fan-out body captures a pointer to it,
 *  so its std::function stays in the small buffer. */
struct Linear::GemmGroup
{
    GemmItem items[2 * kMaxGroup];
    int count = 0;

    GemmItem &
    add(GemmKind kind, const Tensor &a, const Tensor &b)
    {
        GemmItem &it = items[count++];
        it.kind = kind;
        it.a = &a;
        it.b = &b;
        return it;
    }

    /** One item per chunk: each GEMM runs whole on the worker that
     *  claims it. A single item (a lone forward) takes parallelFor's
     *  one-chunk path inline on the caller, so its GEMM fans out as it
     *  would alone. */
    void
    run() const
    {
        const GemmGroup *g = this;
        runtime::parallelFor(0, count, 1, [g](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i)
                g->items[i].run();
        });
    }
};

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
    Linear *self = this;
    Tensor y;
    forwardMany(&self, 1, x, &y);
    return y;
}

void
Linear::forwardMany(Linear *const *layers, int n, const Tensor &x,
                    Tensor *ys)
{
    SNIP_ASSERT(n >= 1 && n <= kMaxGroup, "a group holds 1 to ", kMaxGroup,
                " layers, not ", n);
    GemmGroup group;
    for (int i = 0; i < n; ++i) {
        Linear &l = *layers[i];
        SNIP_ASSERT(x.rank() == 2 && x.size(1) == l.inFeatures(),
                    "bad input shape for ", l.name_);
        l.saved_x_ = x;
        GemmItem &fwd = group.add(GemmKind::Fwd, x, l.w_);
        fwd.ap = l.plan(GemmKind::Fwd, TensorRole::Activation, &x);
        fwd.bp = l.plan(GemmKind::Fwd, TensorRole::Weight, &l.w_);
        fwd.cache = l.activeCache();
        ys[i] = Tensor(x.size(0), l.outFeatures());
        fwd.c = ys[i].data();
    }
    group.run();
    for (int i = 0; i < n; ++i) {
        if (layers[i]->tap_)
            layers[i]->tap_->onForward(layers[i]->tap_idx_, ys[i]);
    }
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
    Linear *self = this;
    Tensor dx;
    backwardMany(&self, &dy, 1, &dx);
    return dx;
}

void
Linear::backwardMany(Linear *const *layers, const Tensor *dys, int n,
                     Tensor *dxs)
{
    SNIP_ASSERT(n >= 1 && n <= kMaxGroup, "a group holds 1 to ", kMaxGroup,
                " layers, not ", n);
    GemmGroup group;
    for (int i = 0; i < n; ++i) {
        Linear &l = *layers[i];
        const Tensor &dy = dys[i];
        SNIP_ASSERT(dy.rank() == 2 && dy.size(1) == l.outFeatures(),
                    "bad grad shape for ", l.name_);
        SNIP_ASSERT(l.saved_x_.numel() > 0, "backward before forward in ",
                    l.name_);
        SNIP_ASSERT(dy.size(0) == l.saved_x_.size(0),
                    "grad rows disagree with the saved input in ", l.name_);
        GemmItem &dgrad = group.add(GemmKind::Dgrad, dy, l.w_);
        dgrad.ap = l.plan(GemmKind::Dgrad, TensorRole::OutputGrad, &dy);
        dgrad.bp = l.plan(GemmKind::Dgrad, TensorRole::Weight, &l.w_);
        dgrad.cache = l.activeCache();
        dxs[i] = Tensor(dy.size(0), l.inFeatures());
        dgrad.c = dxs[i].data();
        GemmItem &wgrad = group.add(GemmKind::Wgrad, dy, l.saved_x_);
        wgrad.ap = l.plan(GemmKind::Wgrad, TensorRole::OutputGrad, &dy);
        wgrad.bp =
            l.plan(GemmKind::Wgrad, TensorRole::Activation, &l.saved_x_);
        wgrad.c = l.grad_w_.data();
    }
    group.run();
    for (int i = 0; i < n; ++i) {
        if (layers[i]->tap_)
            layers[i]->tap_->onBackward(layers[i]->tap_idx_, dys[i], dxs[i]);
    }
}

} // namespace snip
