#include "core/noise_probe.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/ops.h"
#include "util/logging.h"

namespace snip {

double
addProbeNoise(Tensor &t, double eps, Rng &rng)
{
    const double stddev =
        eps / std::sqrt(static_cast<double>(std::max<int64_t>(
                  1, t.numel())));
    double acc = 0.0;
    float *p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) {
        const double n = rng.nextGaussian() * stddev;
        p[i] += static_cast<float>(n);
        acc += n * n;
    }
    return std::sqrt(acc);
}

std::vector<double>
ProbeResult::relativeAmplification() const
{
    std::vector<double> out(grad_delta.size(), 0.0);
    if (noise_norm <= 0.0 || inject_point_norm <= 0.0)
        return out;
    const double rho = noise_norm / inject_point_norm;
    for (size_t i = 0; i < grad_delta.size(); ++i)
        out[i] = grad_delta[i] / rho;
    return out;
}

ProbeResult
runNoiseProbe(LlamaModel &model, const Batch &batch,
              const TrainingStats &baseline, ProbeKind kind,
              const ProbeOptions &options)
{
    const LayerRegistry &reg = model.registry();
    SNIP_ASSERT(baseline.layers.size() ==
                static_cast<size_t>(reg.numLinear()));
    SNIP_ASSERT(!baseline.layers.empty() &&
                    baseline.layers[0].dw_dump.numel() > 0 &&
                    baseline.hidden.numel() > 0 &&
                    baseline.hidden_grad.numel() > 0,
                "probe requires the gradient dumps and kept tensors of "
                "collectTrainingStats");
    SNIP_ASSERT(model.forwardCount() == baseline.forward_count,
                "a training forward ran after collectTrainingStats: the "
                "model no longer holds the state the probe backprops "
                "through");

    ProbeResult result;
    result.kind = kind;
    result.inject_point_norm = kind == ProbeKind::Forward
                                   ? baseline.hidden_norm
                                   : baseline.hidden_grad_norm;
    const double eps = options.relative_eps * result.inject_point_norm;
    SNIP_ASSERT(eps > 0.0, "degenerate injection point");

    // Probes run at high precision like the stats pass.
    const PrecisionScheme active = model.currentScheme();
    model.setScheme(PrecisionScheme::uniform(
        static_cast<size_t>(reg.numLinear()), Precision::BF16));

    model.zeroGrad();
    Tensor noisy =
        kind == ProbeKind::Forward ? baseline.hidden : baseline.hidden_grad;
    result.noise_norm = addProbeNoise(noisy, eps, model.noiseRng());
    if (kind == ProbeKind::Forward) {
        const LossResult loss = softmaxCrossEntropy(
            model.forwardHead(std::move(noisy)), batch.targets);
        model.backward(loss.dlogits, /*retain=*/true);
    } else {
        model.backwardBlocks(std::move(noisy), /*retain=*/true);
    }
    model.setScheme(active);

    result.grad_delta.resize(static_cast<size_t>(reg.numLinear()));
    for (int i = 0; i < reg.numLinear(); ++i) {
        const Tensor &noisy = model.linear(i).grad();
        result.grad_delta[static_cast<size_t>(i)] = diffNorm(
            noisy, baseline.layers[static_cast<size_t>(i)].dw_dump);
    }
    return result;
}

} // namespace snip
