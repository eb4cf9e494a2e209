#include "schemes/scheme.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace snip {

const char *
layerRoleName(LayerRole role)
{
    switch (role) {
        case LayerRole::Q:
            return "Q";
        case LayerRole::K:
            return "K";
        case LayerRole::V:
            return "V";
        case LayerRole::O:
            return "O";
        case LayerRole::Gate:
            return "Gate";
        case LayerRole::Up:
            return "Up";
        case LayerRole::Down:
            return "Down";
    }
    return "?";
}

const std::array<LayerRole, kRolesPerBlock> &
allLayerRoles()
{
    static const std::array<LayerRole, kRolesPerBlock> roles = {
        LayerRole::Q, LayerRole::K,  LayerRole::V,    LayerRole::O,
        LayerRole::Gate, LayerRole::Up, LayerRole::Down};
    return roles;
}

double
LayerScheme::fp4Fraction() const
{
    int n = 0;
    for (Precision p : gemm)
        n += (p == Precision::FP4);
    return static_cast<double>(n) / kGemmsPerLayer;
}

Precision
LayerScheme::dominant() const
{
    // Lowest precision wins the display cell.
    bool any4 = false, any6 = false, any8 = false;
    for (Precision p : gemm) {
        any4 |= (p == Precision::FP4);
        any6 |= (p == Precision::FP6);
        any8 |= (p == Precision::FP8);
    }
    if (any4)
        return Precision::FP4;
    if (any6)
        return Precision::FP6;
    if (any8)
        return Precision::FP8;
    return Precision::BF16;
}

std::string
LayerScheme::describe() const
{
    std::string out;
    for (int g = 0; g < kGemmsPerLayer; ++g) {
        if (g)
            out += '/';
        out += precisionName(gemm[static_cast<size_t>(g)]);
    }
    return out;
}

PrecisionScheme
PrecisionScheme::uniform(size_t n_layers, Precision p)
{
    PrecisionScheme s(n_layers);
    for (auto &l : s.layers)
        l = LayerScheme::uniform(p);
    return s;
}

double
PrecisionScheme::fp4FlopFraction(
    const std::vector<double> &layer_flops) const
{
    SNIP_ASSERT(layer_flops.size() == layers.size());
    double total = 0.0, fp4 = 0.0;
    for (size_t i = 0; i < layers.size(); ++i) {
        total += layer_flops[i];
        fp4 += layer_flops[i] * layers[i].fp4Fraction();
    }
    return total > 0 ? fp4 / total : 0.0;
}

double
PrecisionScheme::fp4FractionUnweighted() const
{
    if (layers.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto &l : layers)
        acc += l.fp4Fraction();
    return acc / static_cast<double>(layers.size());
}

std::string
PrecisionScheme::renderHeatmap() const
{
    SNIP_ASSERT(layers.size() % kRolesPerBlock == 0,
                "heatmap requires whole blocks");
    const size_t n_blocks = layers.size() / kRolesPerBlock;
    std::ostringstream oss;
    oss << "blk   ";
    for (LayerRole role : allLayerRoles()) {
        std::string name = layerRoleName(role);
        oss << name;
        for (size_t pad = name.size(); pad < 6; ++pad)
            oss << ' ';
    }
    oss << '\n';
    for (size_t b = 0; b < n_blocks; ++b) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%-6zu", b);
        oss << buf;
        for (int r = 0; r < kRolesPerBlock; ++r) {
            Precision p =
                layers[b * kRolesPerBlock + static_cast<size_t>(r)]
                    .dominant();
            const char *cell = p == Precision::FP4   ? "4"
                               : p == Precision::FP6 ? "6"
                               : p == Precision::FP8 ? "8"
                                                     : "-";
            oss << cell << "     ";
        }
        oss << '\n';
    }
    return oss.str();
}

std::vector<LayerScheme>
makeOptionSet(OptionSetKind kind)
{
    using P = Precision;
    std::vector<LayerScheme> opts;
    switch (kind) {
        case OptionSetKind::Simple:
            opts.push_back(LayerScheme::uniform(P::FP8));
            opts.push_back(LayerScheme::uniform(P::FP4));
            break;
        case OptionSetKind::Standard:
            opts.push_back(LayerScheme::uniform(P::FP8));
            opts.push_back(LayerScheme{{P::FP4, P::FP8, P::FP8}});
            opts.push_back(LayerScheme{{P::FP8, P::FP4, P::FP4}});
            opts.push_back(LayerScheme::uniform(P::FP4));
            break;
        case OptionSetKind::Full:
            for (int bits = 0; bits < 8; ++bits) {
                LayerScheme s;
                for (int g = 0; g < kGemmsPerLayer; ++g) {
                    s.gemm[static_cast<size_t>(g)] =
                        (bits >> g) & 1 ? P::FP4 : P::FP8;
                }
                opts.push_back(s);
            }
            std::stable_sort(opts.begin(), opts.end(),
                             [](const LayerScheme &a, const LayerScheme &b) {
                                 return a.fp4Fraction() < b.fp4Fraction();
                             });
            break;
    }
    return opts;
}

} // namespace snip
