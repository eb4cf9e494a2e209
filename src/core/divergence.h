/**
 * @file
 * Step 4 of the SNIP workflow: turn statistics and probe responses into
 * the two quality metrics of Sec. 4 — loss divergence (forward) and
 * weight divergence (backward) — per layer and per precision option.
 *
 * Loss divergence (Sec. 4.2), for a layer whose forward GEMM quantizes
 * X and W with errors dX,dW:
 *
 *   dL ~ sqrt( (||grad_X L|| ||dX|| / sqrt(MK))^2
 *            + (||grad_W L|| ||dW|| / sqrt(NK))^2 ) / |L|
 *
 * Weight divergence (Sec. 4.3) combines three channels of gradient
 * error, each converted to a weight-update change via the AdamW
 * sensitivity of Sec. 4.3.2:
 *   1. the layer's own Wgrad GEMM quantization (direct dW error);
 *   2. its Dgrad GEMM error, which perturbs the backward stream and
 *      corrupts the gradients of *earlier* layers — scaled by the
 *      per-layer amplification measured by the Step-2 backward probe
 *      (the backward map dY_top -> g_l is linear in the gradient, so a
 *      relative perturbation injected mid-stream is modeled as the
 *      top-injected response scaled by its relative size);
 *   3. its forward-GEMM output error, which perturbs downstream
 *      activations and thereby every layer's gradient — scaled by the
 *      Step-3 forward-probe amplification.
 */
#ifndef SNIP_CORE_DIVERGENCE_H
#define SNIP_CORE_DIVERGENCE_H

#include "core/flops_model.h"
#include "core/noise_probe.h"
#include "core/stats_collector.h"

namespace snip {

/** What the quality metric q_ij is built from (ablations + the
 *  min-abs-err / min-rel-err baselines reuse this analyzer). */
enum class QualityMetric
{
    Snip,       ///< loss divergence + weight divergence (the paper's Q)
    LossOnly,   ///< forward loss divergence only (ablation)
    WeightOnly, ///< backward weight divergence only (ablation)
    AbsError,   ///< sum of absolute quantization errors (baseline)
    RelError,   ///< sum of relative quantization errors (baseline)
};

/** Cost breakdown of one (layer, option) cell. */
struct OptionCost
{
    double loss_div = 0.0;
    double weight_div = 0.0;
    double quality = 0.0;    ///< per the selected metric
    double efficiency = 0.0; ///< e_ij, share of total FLOPs in FP4
};

/** The full (layers x options) cost table the ILP consumes. */
struct DivergenceTable
{
    std::vector<LayerScheme> options;
    /** cell[layer][option]. */
    std::vector<std::vector<OptionCost>> cell;

    int numLayers() const { return static_cast<int>(cell.size()); }
    int numOptions() const
    {
        return static_cast<int>(options.size());
    }
};

/** Analyzer inputs beyond the stats themselves. */
struct DivergenceOptions
{
    QualityMetric metric = QualityMetric::Snip;
    /** Relative weight of weight divergence in Q (paper uses 1). */
    double weight_div_scale = 1.0;
};

/** Builds DivergenceTables from collected statistics. */
class DivergenceAnalyzer
{
  public:
    /**
     * @param bwd_probe Step-2 result; may be null only for metrics that
     *                  do not need weight divergence
     * @param fwd_probe Step-3 result; same caveat
     */
    DivergenceAnalyzer(const TrainingStats &stats,
                       const ProbeResult *bwd_probe,
                       const ProbeResult *fwd_probe,
                       const FlopsModel &flops);

    /** Build the cost table for an option set. */
    DivergenceTable analyze(const std::vector<LayerScheme> &options,
                            const DivergenceOptions &opts = {}) const;

    /**
     * Sec. 4.2 estimate of the forward loss impact of quantizing one
     * layer's X and W at @p precision (Fig. 13's "Estimation" series).
     * Returns the *relative* loss change |L'-L|/|L|.
     */
    double estimateLossImpact(int layer, Precision precision) const;

    /** Loss divergence of one (layer, option). */
    double lossDivergence(int layer, const LayerScheme &opt) const;

    /** Weight divergence of one (layer, option). */
    double weightDivergence(int layer, const LayerScheme &opt) const;

  private:
    /** Quant error of a role tensor at a precision (0 for BF16). */
    double qerr(int layer, Precision p, TensorRole role) const;

    /** Direct dW error of the layer's Wgrad GEMM under @p p. */
    double directWgradError(int layer, Precision p) const;

    /** Relative backward-stream error added by the Dgrad GEMM. */
    double dgradRelativeError(int layer, Precision p) const;

    /** Relative forward-stream error added by the Fwd GEMM. */
    double fwdRelativeError(int layer, Precision p) const;

    const TrainingStats &stats_;
    const FlopsModel &flops_;
    std::vector<double> bwd_amp_; ///< Step-2 amplification per layer
    std::vector<double> fwd_amp_; ///< Step-3 amplification per layer
    bool has_probes_ = false;
};

} // namespace snip

#endif // SNIP_CORE_DIVERGENCE_H
