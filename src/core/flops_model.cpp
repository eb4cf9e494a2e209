#include "core/flops_model.h"

#include "util/logging.h"

namespace snip {

double
precisionThroughput(Precision p)
{
    switch (p) {
        case Precision::BF16:
            return 1.0;
        case Precision::FP8:
            return 2.0;
        case Precision::FP6:
            // No published Blackwell FP6 GEMM rate; assume bandwidth-
            // proportional 16/6.
            return 16.0 / 6.0;
        case Precision::FP4:
            return 4.0;
    }
    return 1.0;
}

FlopsModel::FlopsModel(const LayerRegistry &registry)
    : layer_flops_(registry.allFlopsPerToken())
{
    for (double f : layer_flops_)
        total_flops_ += f;
}

double
FlopsModel::fp4Fraction(const PrecisionScheme &scheme) const
{
    return scheme.fp4FlopFraction(layer_flops_);
}

double
FlopsModel::efficiencyContribution(int layer,
                                   const LayerScheme &opt) const
{
    SNIP_ASSERT(layer >= 0 &&
                layer < static_cast<int>(layer_flops_.size()));
    return layer_flops_[static_cast<size_t>(layer)] / total_flops_ *
           opt.fp4Fraction();
}

double
FlopsModel::layerTime(int layer, const LayerScheme &opt) const
{
    SNIP_ASSERT(layer >= 0 &&
                layer < static_cast<int>(layer_flops_.size()));
    const double per_gemm =
        layer_flops_[static_cast<size_t>(layer)] / kGemmsPerLayer;
    double t = 0.0;
    for (int g = 0; g < kGemmsPerLayer; ++g) {
        t += per_gemm /
             precisionThroughput(opt.gemm[static_cast<size_t>(g)]);
    }
    return t;
}

double
FlopsModel::totalTime(const PrecisionScheme &scheme) const
{
    SNIP_ASSERT(scheme.layers.size() == layer_flops_.size());
    double t = 0.0;
    for (size_t i = 0; i < layer_flops_.size(); ++i)
        t += layerTime(static_cast<int>(i), scheme.layers[i]);
    return t;
}

} // namespace snip
