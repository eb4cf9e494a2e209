#include "core/stats_collector.h"

#include "quant/error_metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace snip {

int
candidateIndex(Precision p)
{
    for (int c = 0; c < kNumCandidates; ++c) {
        if (kCandidatePrecisions[c] == p)
            return c;
    }
    return -1;
}

namespace {

/** LinearTap that fills LayerStats as tensors stream past. */
class CollectorTap : public LinearTap
{
  public:
    CollectorTap(std::vector<LayerStats> &layers, FakeQuantizer &quantizer,
                 const StatsOptions &options)
        : layers_(layers), quantizer_(quantizer), options_(options)
    {
    }

    void
    onForward(int idx, const Tensor &x, const Tensor &w,
              const Tensor &y) override
    {
        LayerStats &s = layers_[static_cast<size_t>(idx)];
        s.m = x.size(0);
        s.k = x.size(1);
        s.n = w.size(0);
        s.x_norm = frobeniusNorm(x);
        s.w_norm = frobeniusNorm(w);
        s.y_norm = frobeniusNorm(y);
        // Each (candidate, role) measurement quantizes its own tensor
        // copy with nearest rounding (measureQuantError forces Nearest,
        // which never touches the quantizer's Rng), so the sweep is
        // embarrassingly parallel and writes disjoint qerr slots.
        runtime::poolOrGlobal(options_.pool)
            .parallelFor(0, kNumCandidates * 2, 1,
                         [&](int64_t t0, int64_t t1) {
            for (int64_t t = t0; t < t1; ++t) {
                const int c = static_cast<int>(t / 2);
                const Precision p = kCandidatePrecisions[c];
                const TensorRole role = (t % 2 == 0)
                                            ? TensorRole::Activation
                                            : TensorRole::Weight;
                const Tensor &src = role == TensorRole::Activation ? x : w;
                s.qerr[c][static_cast<int>(role)] =
                    measureQuantError(src, rolePolicy(p, role), quantizer_)
                        .abs_error;
            }
        });
    }

    void
    onBackward(int idx, const Tensor &dy, const Tensor &dx,
               const Tensor &dw) override
    {
        LayerStats &s = layers_[static_cast<size_t>(idx)];
        s.dy_norm = frobeniusNorm(dy);
        s.dx_norm = frobeniusNorm(dx);
        s.dw_norm = frobeniusNorm(dw);
        runtime::poolOrGlobal(options_.pool)
            .parallelFor(0, kNumCandidates, 1, [&](int64_t c0, int64_t c1) {
            for (int64_t c = c0; c < c1; ++c) {
                const Precision p = kCandidatePrecisions[static_cast<int>(c)];
                s.qerr[c][static_cast<int>(TensorRole::OutputGrad)] =
                    measureQuantError(dy,
                                      rolePolicy(p, TensorRole::OutputGrad),
                                      quantizer_)
                        .abs_error;
            }
        });
        s.dw_dump = dw;
    }

  private:
    std::vector<LayerStats> &layers_;
    FakeQuantizer &quantizer_;
    const StatsOptions &options_;
};

} // namespace

TrainingStats
collectTrainingStats(LlamaModel &model, AdamW *optimizer,
                     const Batch &batch, const StatsOptions &options)
{
    const LayerRegistry &reg = model.registry();
    TrainingStats stats;
    stats.layers.resize(static_cast<size_t>(reg.numLinear()));
    for (int i = 0; i < reg.numLinear(); ++i) {
        stats.layers[static_cast<size_t>(i)].idx = i;
        stats.layers[static_cast<size_t>(i)].name = reg.layerName(i);
    }

    // The paper collects statistics during a *high-precision* iteration
    // (Sec. 3.1); temporarily run uniform BF16.
    const PrecisionScheme active = model.currentScheme();
    model.setScheme(PrecisionScheme::uniform(
        static_cast<size_t>(reg.numLinear()), Precision::BF16));

    CollectorTap tap(stats.layers, model.quantizer(), options);
    model.setTap(&tap);
    model.zeroGrad();
    LossResult loss =
        model.forwardLoss(batch.tokens, batch.targets, batch.batch,
                          batch.seq);
    model.backward(loss.dlogits);
    model.setTap(nullptr);
    model.setScheme(active);

    stats.loss = loss.loss;
    stats.hidden_norm = model.lastHiddenNorm();
    stats.hidden_grad_norm = model.lastHiddenGradNorm();

    if (optimizer) {
        stats.opt_scale = optimizer->updateScaleFactor();
        for (int i = 0; i < reg.numLinear(); ++i) {
            // Pointer-identity lookup only: go through the const
            // accessor so the layer's packed-weight cache stays armed
            // (the non-const weight() assumes an impending mutation).
            const Linear &lin = model.linear(i);
            const int pidx = optimizer->paramIndexOf(&lin.weight());
            SNIP_ASSERT(pidx >= 0, "linear weight not in optimizer");
            stats.layers[static_cast<size_t>(i)].opt_sensitivity =
                optimizer->updateSensitivityNorm(
                    static_cast<size_t>(pidx));
        }
    }
    return stats;
}

} // namespace snip
