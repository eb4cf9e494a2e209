#include "core/divergence.h"

#include <cmath>

#include "util/logging.h"

namespace snip {

DivergenceAnalyzer::DivergenceAnalyzer(const TrainingStats &stats,
                                       const ProbeResult *bwd_probe,
                                       const ProbeResult *fwd_probe,
                                       const FlopsModel &flops)
    : stats_(stats), flops_(flops)
{
    const size_t n = stats.layers.size();
    bwd_amp_.assign(n, 0.0);
    fwd_amp_.assign(n, 0.0);
    if (bwd_probe && fwd_probe) {
        SNIP_ASSERT(bwd_probe->grad_delta.size() == n &&
                    fwd_probe->grad_delta.size() == n);
        bwd_amp_ = bwd_probe->relativeAmplification();
        fwd_amp_ = fwd_probe->relativeAmplification();
        has_probes_ = true;
    }
}

double
DivergenceAnalyzer::qerr(int layer, Precision p, TensorRole role) const
{
    if (p == Precision::BF16) {
        // BF16 rounding error of FP32 values is ~2^-8 relative —
        // treated as the zero reference, like the paper's baseline.
        return 0.0;
    }
    const int c = candidateIndex(p);
    SNIP_ASSERT(c >= 0);
    return stats_.layers[static_cast<size_t>(layer)]
        .qerr[c][static_cast<int>(role)];
}

double
DivergenceAnalyzer::lossDivergence(int layer, const LayerScheme &opt) const
{
    const LayerStats &s = stats_.layers[static_cast<size_t>(layer)];
    const Precision p = opt.of(GemmKind::Fwd);
    const double dx_err = qerr(layer, p, TensorRole::Activation);
    const double dw_err = qerr(layer, p, TensorRole::Weight);
    const double mk = std::sqrt(static_cast<double>(s.m * s.k));
    const double nk = std::sqrt(static_cast<double>(s.n * s.k));
    // Sec. 4.2: |L(X+dX,W+dW)-L| ~ sqrt(term_x^2 + term_w^2) with
    // term_x = ||grad_X L|| ||dX|| / sqrt(MK), and grad_X L is exactly
    // the layer's input gradient dX from the backward pass.
    const double term_x = mk > 0 ? s.dx_norm * dx_err / mk : 0.0;
    const double term_w = nk > 0 ? s.dw_norm * dw_err / nk : 0.0;
    const double abs_div = std::sqrt(term_x * term_x + term_w * term_w);
    const double denom = std::max(std::fabs(stats_.loss), 1e-12);
    return abs_div / denom;
}

double
DivergenceAnalyzer::directWgradError(int layer, Precision p) const
{
    const LayerStats &s = stats_.layers[static_cast<size_t>(layer)];
    // dW = dY^T X; contraction is over the M (token) dimension:
    // ||ddY^T X|| ~ ||ddY|| ||X|| / sqrt(M).
    const double ddy = qerr(layer, p, TensorRole::OutputGrad);
    const double dx = qerr(layer, p, TensorRole::Activation);
    const double sm = std::sqrt(static_cast<double>(std::max<int64_t>(
        1, s.m)));
    const double t1 = ddy * s.x_norm / sm;
    const double t2 = s.dy_norm * dx / sm;
    return std::sqrt(t1 * t1 + t2 * t2);
}

double
DivergenceAnalyzer::dgradRelativeError(int layer, Precision p) const
{
    const LayerStats &s = stats_.layers[static_cast<size_t>(layer)];
    if (s.dx_norm <= 0.0)
        return 0.0;
    // dX = dY W; contraction over the N dimension.
    const double ddy = qerr(layer, p, TensorRole::OutputGrad);
    const double dw = qerr(layer, p, TensorRole::Weight);
    const double sn = std::sqrt(static_cast<double>(std::max<int64_t>(
        1, s.n)));
    const double t1 = ddy * s.w_norm / sn;
    const double t2 = s.dy_norm * dw / sn;
    return std::sqrt(t1 * t1 + t2 * t2) / s.dx_norm;
}

double
DivergenceAnalyzer::fwdRelativeError(int layer, Precision p) const
{
    const LayerStats &s = stats_.layers[static_cast<size_t>(layer)];
    if (s.y_norm <= 0.0)
        return 0.0;
    // Y = X W^T; contraction over the K dimension.
    const double dx = qerr(layer, p, TensorRole::Activation);
    const double dw = qerr(layer, p, TensorRole::Weight);
    const double sk = std::sqrt(static_cast<double>(std::max<int64_t>(
        1, s.k)));
    const double t1 = dx * s.w_norm / sk;
    const double t2 = s.x_norm * dw / sk;
    return std::sqrt(t1 * t1 + t2 * t2) / s.y_norm;
}

double
DivergenceAnalyzer::weightDivergence(int layer,
                                     const LayerScheme &opt) const
{
    const int n_layers = static_cast<int>(stats_.layers.size());
    // Gradient error per affected layer l, then through AdamW:
    // ||W'_l - W_l|| ~ opt_scale * sens_l * ||dg_l||.
    auto update_error = [&](int l, double dg) {
        const LayerStats &sl = stats_.layers[static_cast<size_t>(l)];
        const double w_norm = std::max(sl.w_norm, 1e-12);
        return stats_.opt_scale * sl.opt_sensitivity * dg / w_norm;
    };

    double total = 0.0;

    // Channel 1: this layer's own Wgrad quantization.
    total += update_error(layer,
                          directWgradError(layer, opt.of(GemmKind::Wgrad)));

    if (has_probes_) {
        // Channel 2: Dgrad error perturbs the backward stream feeding
        // every *earlier* layer (l < layer).
        const double r_bwd =
            dgradRelativeError(layer, opt.of(GemmKind::Dgrad));
        if (r_bwd > 0.0) {
            for (int l = 0; l < layer; ++l)
                total += update_error(
                    l, bwd_amp_[static_cast<size_t>(l)] * r_bwd);
        }

        // Channel 3: Fwd error perturbs downstream activations and,
        // through the loss, every layer's gradient.
        const double r_fwd =
            fwdRelativeError(layer, opt.of(GemmKind::Fwd));
        if (r_fwd > 0.0) {
            for (int l = 0; l < n_layers; ++l)
                total += update_error(
                    l, fwd_amp_[static_cast<size_t>(l)] * r_fwd);
        }
    }

    // Definition 4.4 averages over layers.
    return total / static_cast<double>(std::max(1, n_layers));
}

DivergenceTable
DivergenceAnalyzer::analyze(const std::vector<LayerScheme> &options,
                            const DivergenceOptions &opts) const
{
    DivergenceTable table;
    table.options = options;
    const int n_layers = static_cast<int>(stats_.layers.size());
    table.cell.resize(static_cast<size_t>(n_layers));

    for (int i = 0; i < n_layers; ++i) {
        auto &row = table.cell[static_cast<size_t>(i)];
        row.resize(options.size());
        for (size_t j = 0; j < options.size(); ++j) {
            const LayerScheme &opt = options[j];
            OptionCost &c = row[j];
            c.loss_div = lossDivergence(i, opt);
            c.weight_div = weightDivergence(i, opt);
            c.efficiency = flops_.efficiencyContribution(i, opt);
            switch (opts.metric) {
              case QualityMetric::Snip:
                c.quality = c.loss_div +
                            opts.weight_div_scale * c.weight_div;
                break;
              case QualityMetric::LossOnly:
                c.quality = c.loss_div;
                break;
              case QualityMetric::WeightOnly:
                c.quality = c.weight_div;
                break;
              case QualityMetric::AbsError:
              case QualityMetric::RelError: {
                // Each GEMM consumes two quantized operands: Fwd (X,W),
                // Dgrad (dY,W), Wgrad (dY,X). The baselines sum those
                // operand errors, absolute or input-norm-relative.
                static constexpr TensorRole kOperands[kGemmsPerLayer][2] =
                    {{TensorRole::Activation, TensorRole::Weight},
                     {TensorRole::OutputGrad, TensorRole::Weight},
                     {TensorRole::OutputGrad, TensorRole::Activation}};
                const LayerStats &s =
                    stats_.layers[static_cast<size_t>(i)];
                auto role_norm = [&](TensorRole role) {
                    switch (role) {
                      case TensorRole::Activation:
                        return s.x_norm;
                      case TensorRole::Weight:
                        return s.w_norm;
                      case TensorRole::OutputGrad:
                        return s.dy_norm;
                    }
                    return 0.0;
                };
                double q = 0.0;
                for (int g = 0; g < kGemmsPerLayer; ++g) {
                    const Precision p = opt.gemm[static_cast<size_t>(g)];
                    for (TensorRole role : kOperands[g]) {
                        double err = qerr(i, p, role);
                        if (opts.metric == QualityMetric::RelError) {
                            const double norm = role_norm(role);
                            err = norm > 0 ? err / norm : 0.0;
                        }
                        q += err;
                    }
                }
                c.quality = q;
                break;
              }
            }
        }
    }
    return table;
}

double
DivergenceAnalyzer::estimateLossImpact(int layer, Precision precision) const
{
    return lossDivergence(layer, LayerScheme::uniform(precision));
}

} // namespace snip
