#include "quant/scaling.h"

namespace snip {

const char *
granularityName(Granularity g)
{
    switch (g) {
        case Granularity::Tensorwise:
            return "tensorwise";
        case Granularity::Rowwise:
            return "rowwise";
        case Granularity::Columnwise:
            return "columnwise";
        case Granularity::Blockwise:
            return "blockwise";
        case Granularity::Tilewise:
            return "tilewise";
    }
    return "?";
}

RegionGrid
regionGrid(int64_t rows, int64_t cols, const ScalingSpec &spec)
{
    const int64_t nb = std::max<int64_t>(1, spec.block);
    RegionGrid g;
    g.rows = rows;
    g.cols = cols;
    g.rb = rows;
    g.cb = cols;
    switch (spec.granularity) {
        case Granularity::Tensorwise:
            break;
        case Granularity::Rowwise:
            g.rb = 1;
            break;
        case Granularity::Columnwise:
            g.cb = 1;
            break;
        case Granularity::Blockwise:
            g.rb = nb;
            g.cb = nb;
            break;
        case Granularity::Tilewise:
            g.rb = 1;
            g.cb = nb;
            break;
    }
    g.rb = std::max<int64_t>(1, std::min(g.rb, rows));
    g.cb = std::max<int64_t>(1, std::min(g.cb, cols));
    g.nrr = (rows + g.rb - 1) / g.rb;
    g.ncr = (cols + g.cb - 1) / g.cb;
    return g;
}

void
matrixView(const Tensor &t, int64_t &rows, int64_t &cols)
{
    if (t.rank() == 0 || t.numel() == 0) {
        rows = t.numel() > 0 ? 1 : 0;
        cols = t.numel();
        return;
    }
    cols = t.size(-1);
    rows = cols > 0 ? t.numel() / cols : 0;
}

} // namespace snip
