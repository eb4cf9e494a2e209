/**
 * @file
 * Steps 2-3 of the SNIP workflow (Fig. 6): noise-injection probes.
 *
 * Computing the second-order derivatives ||d(dL/dW_l)/dX_j||_F exactly
 * is prohibitive, so the paper estimates them stochastically via
 * Theorem 4.2: inject a small Gaussian perturbation at the last layer —
 * into the backward gradient stream (Step 2) or the forward activations
 * (Step 3) — redo the pass on the *same batch* without updating
 * weights, and measure the per-layer Frobenius norm of the change in
 * each weight gradient against the Step-1 dump.
 *
 * Nothing upstream of the injection point is rerun: the blocks'
 * forward would repeat Step 1's bit for bit. A probe starts from the
 * tensors collectTrainingStats kept and backprops through the saved
 * state its retaining backward left in the blocks. It perturbs its own
 * copy of the kept tensor (addProbeNoise, drawing from the model's
 * noise stream) and hands the noisy copy to the model's public halves:
 *   - Step 2 backprops the blocks and the embedding from a noisy copy
 *     of the gradient entering the last block (backwardBlocks);
 *   - Step 3 runs the final norm, the LM head and the loss from a noisy
 *     copy of the last block's output (forwardHead), then the whole
 *     backward.
 * So Steps 1-3 are one forward and three backwards. Both probes retain
 * the saved state too, so they run in any order and any number of
 * times. The precondition: no training forward and no weight update
 * between collectTrainingStats and the probe. A forward is caught by an
 * assert (TrainingStats::forward_count); a weight update is not.
 */
#ifndef SNIP_CORE_NOISE_PROBE_H
#define SNIP_CORE_NOISE_PROBE_H

#include <vector>

#include "core/stats_collector.h"

namespace snip {

/**
 * Add N(0, eps^2/d * I) noise to @p t in place, d = t.numel(), so the
 * noise norm is eps in expectation (Theorem 4.1). Draws one
 * nextGaussian() from @p rng per element, in element order. Returns
 * the norm of the noise actually added.
 */
double addProbeNoise(Tensor &t, double eps, Rng &rng);

/** Where the probe injects its perturbation. */
enum class ProbeKind
{
    Backward, ///< Step 2: noise into the last block's incoming gradient
    Forward,  ///< Step 3: noise into the last block's output activation
};

/** Result of one probe pass. */
struct ProbeResult
{
    ProbeKind kind = ProbeKind::Backward;
    /** ||dW_l(noisy) - dW_l(baseline)||_F per layer. */
    std::vector<double> grad_delta;
    /** Actual norm of the injected noise (the eps of Theorem 4.2). */
    double noise_norm = 0.0;
    /** Norm of the stream at the injection point (baseline pass). */
    double inject_point_norm = 0.0;

    /**
     * Per-layer sensitivity to a *unit-relative* perturbation of the
     * injected stream: grad_delta[l] / (noise_norm/inject_point_norm).
     */
    std::vector<double> relativeAmplification() const;
};

/** Probe controls. */
struct ProbeOptions
{
    /** Noise norm as a fraction of the injection-point norm. */
    double relative_eps = 1e-3;
};

/**
 * Run one probe: injects noise of norm relative_eps * (injection-point
 * norm from @p baseline) into a copy of the tensor @p baseline kept at
 * the injection point, redoes the pass downstream of it in uniform
 * BF16 (the loss takes @p batch's targets), and diffs each layer's dW
 * against the dumps stored in @p baseline. @p baseline must come from
 * the model's latest training forward (see the file comment). Weights
 * are not updated; gradients are left dirty (the caller
 * snapshots/zeroes as needed). The model's active scheme is restored
 * on return.
 */
ProbeResult runNoiseProbe(LlamaModel &model, const Batch &batch,
                          const TrainingStats &baseline, ProbeKind kind,
                          const ProbeOptions &options = {});

} // namespace snip

#endif // SNIP_CORE_NOISE_PROBE_H
