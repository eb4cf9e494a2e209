/**
 * @file
 * Step 1 of the SNIP workflow (Fig. 6): collect statistics during one
 * instrumented high-precision training iteration.
 *
 * For every quantizable linear layer the collector records (Sec. 3.1):
 *   - Frobenius norms of inputs X, weights W, outputs Y, output
 *     gradients dY, input gradients dX, and weight gradients dW;
 *   - quantization-error norms of X/W/dY under every candidate
 *     precision's role policy;
 *   - the AdamW update-sensitivity term of Sec. 4.3.2.
 * It also snapshots each layer's dW tensor (the "gradient dump") for the
 * noise probes of Steps 2-3 to diff against.
 *
 * One forward serves Steps 1-3. The pass keeps the last block's output
 * and the gradient entering the last block, and backprops with the
 * model's retain flag, so the blocks keep their saved state: each probe
 * (core/noise_probe.h) perturbs its own copy of one of the two tensors
 * and restarts from it instead of rerunning the forward. The probes'
 * injection-point norms are the norms of the kept tensors. The
 * tensors that exist only while the pass streams are measured by a
 * LinearTap: Y's norm in the forward, and dY (with its quantization
 * errors) and dX in the backward. The gradients are zeroed before the
 * pass, so after it each Linear's grad() is exactly the pass's dW; the
 * gradient dumps are copies of it, taken on the calling thread.
 * Everything else is one sweep over all layers on the pool after the
 * backward: the X/W norms and quantization errors from each Linear's
 * retained input and its weight, the dW norm from its gradient, and
 * the AdamW sensitivity.
 */
#ifndef SNIP_CORE_STATS_COLLECTOR_H
#define SNIP_CORE_STATS_COLLECTOR_H

#include <vector>

#include "data/batch.h"
#include "nn/model.h"
#include "optim/adamw.h"

namespace snip {

/** Candidate precisions the statistics pass measures errors for, in
 *  ascending-error order (FP8 < FP6 < FP4). */
inline constexpr Precision kCandidatePrecisions[] = {
    Precision::FP8, Precision::FP6, Precision::FP4};
inline constexpr int kNumCandidates = 3;

/** Index of a precision in kCandidatePrecisions; -1 for BF16. */
int candidateIndex(Precision p);

/** Per-layer statistics from the instrumented iteration. */
struct LayerStats
{
    int idx = -1;
    std::string name;
    /** GEMM dimensions: X is [M,K], W is [N,K], Y/dY are [M,N]. */
    int64_t m = 0, n = 0, k = 0;

    double x_norm = 0.0;
    double w_norm = 0.0;
    double y_norm = 0.0;
    double dy_norm = 0.0;
    double dx_norm = 0.0;
    double dw_norm = 0.0;

    /** qerr[candidate][role]: ||q(t)-t||_F under rolePolicy. Roles are
     *  indexed by TensorRole (Activation, Weight, OutputGrad). */
    double qerr[kNumCandidates][3] = {};

    /** ||dh/dg||_F / sqrt(numel) of the AdamW update (Sec. 4.3.2). */
    double opt_sensitivity = 0.0;

    /** Baseline weight-gradient dump for probe diffs. */
    Tensor dw_dump;
};

/** Everything Step 1 produces. */
struct TrainingStats
{
    std::vector<LayerStats> layers;
    /** Training loss L of the instrumented iteration. */
    double loss = 0.0;
    /** alpha * sqrt(1-b2^t) / (1-b1^t) shared across layers. */
    double opt_scale = 0.0;
    /** ||hidden||_F (the forward injection point's norm). */
    double hidden_norm = 0.0;
    /** ||hidden_grad||_F (the backward injection point's norm). */
    double hidden_grad_norm = 0.0;

    /** The last block's output: Step 3 reruns the head and the backward
     *  from a noisy copy of it. */
    Tensor hidden;
    /** The gradient entering the last block: Step 2 reruns the blocks'
     *  backward from a noisy copy of it. */
    Tensor hidden_grad;
    /** model.forwardCount() after the pass's forward. The probes
     *  require it unchanged: a later training forward replaces the
     *  saved state they backprop through. */
    uint64_t forward_count = 0;
};

namespace runtime {
class ThreadPool;
} // namespace runtime

/** Knobs for the statistics pass. */
struct StatsOptions
{
    /** Pool for the error sweeps; null = the process-wide shared pool
     *  (runtime::globalThreadPool()). */
    runtime::ThreadPool *pool = nullptr;
};

/**
 * Run one instrumented forward+backward in uniform BF16 (the paper
 * collects statistics at high precision), restoring the model's active
 * scheme afterwards. Gradients are left in the model (zeroed first), so
 * the caller may follow up with probes and/or an optimizer step. The
 * backward retains the blocks' saved state for the probes; the next
 * training forward replaces it.
 *
 * @param optimizer may be null; optimizer-dependent statistics are then
 *                  left at zero (e.g. before the first step).
 */
TrainingStats collectTrainingStats(LlamaModel &model, AdamW *optimizer,
                                   const Batch &batch,
                                   const StatsOptions &options = {});

} // namespace snip

#endif // SNIP_CORE_STATS_COLLECTOR_H
