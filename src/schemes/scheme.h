/**
 * @file
 * Precision schemes: the per-layer quantization decisions SNIP and the
 * baselines produce.
 *
 * A Llama transformer block contains seven linear layers (Q, K, V, O,
 * Gate, Up, Down — Fig. 4); these are the only quantized operators
 * (Sec. 2.1: they account for >90% of training FLOPs). Each linear layer
 * performs three equal-FLOP GEMMs per training step (forward, input-
 * gradient, weight-gradient — Fig. 5), and a *layer scheme* assigns a
 * precision to each GEMM. Linear layers are indexed globally as
 *
 *     index = block * 7 + role
 *
 * which every component of the library (registry, stats, ILP, heatmap
 * renderers) relies on.
 */
#ifndef SNIP_SCHEMES_SCHEME_H
#define SNIP_SCHEMES_SCHEME_H

#include <array>
#include <string>
#include <vector>

#include "quant/quantizer.h"

namespace snip {

/** Role of a linear layer inside a transformer block (Fig. 4). */
enum class LayerRole
{
    Q = 0,
    K = 1,
    V = 2,
    O = 3,
    Gate = 4,
    Up = 5,
    Down = 6,
};

/** Number of linear layers per transformer block. */
inline constexpr int kRolesPerBlock = 7;

/** Short name ("Q".."Down"). */
const char *layerRoleName(LayerRole role);

/** All roles in index order. */
const std::array<LayerRole, kRolesPerBlock> &allLayerRoles();

/** The three GEMMs of a linear layer during one training step. */
enum class GemmKind
{
    Fwd = 0,    ///< Y  = X W^T
    Dgrad = 1,  ///< dX = dY W
    Wgrad = 2,  ///< dW = dY^T X
};

/** Number of GEMMs per linear layer per step. */
inline constexpr int kGemmsPerLayer = 3;

/** Precision assignment for one linear layer's three GEMMs. */
struct LayerScheme
{
    std::array<Precision, kGemmsPerLayer> gemm{
        Precision::BF16, Precision::BF16, Precision::BF16};

    /** Uniform assignment across the three GEMMs. */
    static LayerScheme uniform(Precision p)
    {
        return LayerScheme{{p, p, p}};
    }

    /** Precision of one GEMM. */
    Precision of(GemmKind kind) const
    {
        return gemm[static_cast<size_t>(kind)];
    }

    /** Fraction of this layer's GEMM FLOPs executed in FP4 (0, 1/3,
     *  2/3 or 1). */
    double fp4Fraction() const;

    /** Dominant precision for single-cell heatmap display: FP4 if any
     *  GEMM is FP4, else FP8 if any is FP8, else BF16. */
    Precision dominant() const;

    /** e.g. "FP4/FP8/FP8" in fwd/dgrad/wgrad order. */
    std::string describe() const;

    bool operator==(const LayerScheme &other) const
    {
        return gemm == other.gemm;
    }
    bool operator!=(const LayerScheme &other) const
    {
        return !(*this == other);
    }
};

/** Whole-model precision assignment, one LayerScheme per linear layer. */
struct PrecisionScheme
{
    std::vector<LayerScheme> layers;

    PrecisionScheme() = default;
    explicit PrecisionScheme(size_t n_layers) : layers(n_layers) {}

    /** All layers at the same precision (the BF16/FP8/FP4 baselines). */
    static PrecisionScheme uniform(size_t n_layers, Precision p);

    size_t numLayers() const { return layers.size(); }

    /**
     * Fraction of total linear-layer FLOPs executed in FP4, weighting
     * each layer by @p layer_flops (the paper's efficiency metric E).
     */
    double fp4FlopFraction(const std::vector<double> &layer_flops) const;

    /** Unweighted average FP4 fraction (equal-FLOP layers). */
    double fp4FractionUnweighted() const;

    /**
     * Render the Fig. 7/11-style heatmap: rows are block ids, columns
     * the seven roles; cells show the dominant precision ("4"/"8"/"-").
     * Requires layers.size() to be a multiple of kRolesPerBlock.
     */
    std::string renderHeatmap() const;

    bool operator==(const PrecisionScheme &other) const
    {
        return layers == other.layers;
    }
    bool operator!=(const PrecisionScheme &other) const
    {
        return !(*this == other);
    }
};

/** Families of per-layer option sets offered to the ILP (Sec. 5.2: "for
 *  each layer the options are combinations of FP8 and FP4 formats"). */
enum class OptionSetKind
{
    /** {all-FP8, all-FP4}: the paper's headline configuration space. */
    Simple,
    /** {all-FP8, fwd-FP4, bwd-FP4, all-FP4}. */
    Standard,
    /** All 8 per-GEMM FP8/FP4 combinations. */
    Full,
};

/** Materialize the option list for a kind. Options are ordered by
 *  ascending FP4 fraction; index 0 is always all-FP8. */
std::vector<LayerScheme> makeOptionSet(OptionSetKind kind);

} // namespace snip

#endif // SNIP_SCHEMES_SCHEME_H
