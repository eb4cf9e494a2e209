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

/** LinearTap measuring the tensors that exist only while the pass
 *  streams: Y in the forward, dY/dX in the backward. */
class CollectorTap : public LinearTap
{
  public:
    CollectorTap(std::vector<LayerStats> &layers, runtime::ThreadPool &pool)
        : layers_(layers), pool_(pool)
    {
    }

    void
    onForward(int idx, const Tensor &y) override
    {
        layers_[static_cast<size_t>(idx)].y_norm = frobeniusNorm(y);
    }

    void
    onBackward(int idx, const Tensor &dy, const Tensor &dx) override
    {
        LayerStats &s = layers_[static_cast<size_t>(idx)];
        s.dy_norm = frobeniusNorm(dy);
        s.dx_norm = frobeniusNorm(dx);
        // dY is transient, so its errors are measured here, one
        // candidate per item; measureQuantError draws nothing.
        pool_.parallelFor(0, kNumCandidates, 1, [&](int64_t c0, int64_t c1) {
            for (int64_t c = c0; c < c1; ++c) {
                const Precision p = kCandidatePrecisions[static_cast<int>(c)];
                s.qerr[c][static_cast<int>(TensorRole::OutputGrad)] =
                    measureQuantError(dy,
                                      rolePolicy(p, TensorRole::OutputGrad))
                        .abs_error;
            }
        });
    }

  private:
    std::vector<LayerStats> &layers_;
    runtime::ThreadPool &pool_;
};

/**
 * The per-layer sweep after the retaining backward, one layer per pool
 * item: shapes, X/W norms and quantization errors from the Linear's
 * saved input and its weight, the dW norm from its gradient, and the
 * AdamW sensitivity (whose gradient term is this pass's dW). Each item
 * reads its own layer and writes its own LayerStats.
 */
void
sweepLayers(LlamaModel &model, const AdamW *optimizer,
            std::vector<LayerStats> &layers, runtime::ThreadPool &pool)
{
    pool.parallelFor(0, static_cast<int64_t>(layers.size()), 1,
                     [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            LayerStats &s = layers[static_cast<size_t>(i)];
            // The const accessor keeps the layer's packed-weight cache
            // armed (the non-const weight() assumes a mutation).
            const Linear &lin = model.linear(static_cast<int>(i));
            const Tensor &x = lin.savedInput();
            const Tensor &w = lin.weight();
            s.m = x.size(0);
            s.k = x.size(1);
            s.n = w.size(0);
            s.x_norm = frobeniusNorm(x);
            s.w_norm = frobeniusNorm(w);
            s.dw_norm = frobeniusNorm(lin.grad());
            for (int c = 0; c < kNumCandidates; ++c) {
                const Precision p = kCandidatePrecisions[c];
                for (TensorRole role :
                     {TensorRole::Activation, TensorRole::Weight}) {
                    s.qerr[c][static_cast<int>(role)] =
                        measureQuantError(
                            role == TensorRole::Activation ? x : w,
                            rolePolicy(p, role))
                            .abs_error;
                }
            }
            if (optimizer) {
                const int pidx = optimizer->paramIndexOf(&w);
                SNIP_ASSERT(pidx >= 0, "linear weight not in optimizer");
                s.opt_sensitivity = optimizer->updateSensitivityNorm(
                    static_cast<size_t>(pidx));
            }
        }
    });
}

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

    runtime::ThreadPool &pool = runtime::poolOrGlobal(options.pool);
    CollectorTap tap(stats.layers, pool);
    model.setTap(&tap);
    model.zeroGrad();
    stats.hidden =
        model.forwardBlocks(batch.tokens, batch.batch, batch.seq);
    stats.forward_count = model.forwardCount();
    const LossResult loss =
        softmaxCrossEntropy(model.forwardHead(stats.hidden), batch.targets);
    stats.hidden_grad = model.backwardHead(loss.dlogits);
    model.backwardBlocks(stats.hidden_grad, /*retain=*/true);
    model.setTap(nullptr);
    // The gradients started at zero, so each grad() now holds exactly
    // this pass's dW: the probes diff against a copy of it.
    for (int i = 0; i < reg.numLinear(); ++i)
        stats.layers[static_cast<size_t>(i)].dw_dump =
            model.linear(i).grad();
    sweepLayers(model, optimizer, stats.layers, pool);
    model.setScheme(active);

    stats.loss = loss.loss;
    stats.hidden_norm = frobeniusNorm(stats.hidden);
    stats.hidden_grad_norm = frobeniusNorm(stats.hidden_grad);
    if (optimizer)
        stats.opt_scale = optimizer->updateScaleFactor();
    return stats;
}

} // namespace snip
