/**
 * @file
 * Analytical FLOPs / throughput model.
 *
 * The paper's efficiency metric is the fraction of linear-layer FLOPs
 * executed in FP4 (Sec. 5.1, Sec. 6.1), since no GPU at submission time
 * natively ran both FP8 and FP4. For the pipeline timeline (Fig. 12) a
 * relative-throughput model is also needed; per NVIDIA Blackwell
 * (Sec. 2.2), FP4 has 2x the TFLOPS of FP8 and 4x that of BF16.
 */
#ifndef SNIP_CORE_FLOPS_MODEL_H
#define SNIP_CORE_FLOPS_MODEL_H

#include "nn/layer_registry.h"
#include "schemes/scheme.h"

namespace snip {

/** Relative GEMM throughput vs BF16 (Blackwell ratios). */
double precisionThroughput(Precision p);

/** FLOPs and time accounting over a model's linear layers. */
class FlopsModel
{
  public:
    /** Empty model (no layers); a value-type placeholder so snapshot
     *  structs (async/scheme_service.h) can default-construct. */
    FlopsModel() = default;

    explicit FlopsModel(const LayerRegistry &registry);

    /** Per-layer GEMM FLOPs per token (all three GEMMs). */
    const std::vector<double> &layerFlops() const { return layer_flops_; }

    /** Sum of layerFlops(). */
    double totalFlops() const { return total_flops_; }

    /** Fraction of linear FLOPs in FP4 under @p scheme (metric E). */
    double fp4Fraction(const PrecisionScheme &scheme) const;

    /**
     * Efficiency contribution e_{i,option}: this layer's share of total
     * FLOPs times the option's FP4 fraction — the ILP's e coefficients.
     */
    double efficiencyContribution(int layer, const LayerScheme &opt) const;

    /**
     * Relative execution time of one layer's GEMMs under a scheme,
     * normalized so BF16 execution of the same layer costs
     * layerFlops(i). Lower precision divides time by its throughput.
     */
    double layerTime(int layer, const LayerScheme &opt) const;

    /** Total relative time of the whole model under a scheme. */
    double totalTime(const PrecisionScheme &scheme) const;

  private:
    std::vector<double> layer_flops_;
    double total_flops_ = 0.0;
};

} // namespace snip

#endif // SNIP_CORE_FLOPS_MODEL_H
