#include "quant/error_metrics.h"

#include <cmath>

#include "runtime/workspace_arena.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "tensor/ops.h"

namespace snip {

QuantError
measureQuantError(const Tensor &t, const QuantConfig &cfg)
{
    QuantConfig det = cfg;
    det.rounding = Rounding::Nearest;
    int64_t rows, cols;
    matrixView(t, rows, cols);
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    float *q = arena.getFloats(static_cast<size_t>(t.numel()));
    fakeQuantize(t.data(), q, rows, cols, det, /*call_key=*/0);

    QuantError err;
    err.input_norm = frobeniusNorm(t);
    // Vectorized accumulators via the dispatched backend; max_error is
    // exact, the sum of squares may differ across backends in
    // low-order bits.
    double acc = 0.0;
    double max_e = 0.0;
    simd::activeKernels().errorStats(t.data(), q, t.numel(), &acc, &max_e);
    err.abs_error = std::sqrt(acc);
    err.max_error = max_e;
    err.rel_error = err.input_norm > 0 ? err.abs_error / err.input_norm
                                       : 0.0;
    return err;
}

} // namespace snip
