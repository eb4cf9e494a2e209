/**
 * @file
 * The full Llama-like language model (Fig. 4), with the instrumentation
 * hooks SNIP's statistics pipeline needs:
 *   - per-linear precision schemes (Fig. 5),
 *   - a LinearTap broadcast to all quantizable layers (Step 1, Fig. 6),
 *   - Gaussian noise injection at the last layer in the forward or the
 *     backward pass (Steps 2-3, Fig. 6).
 */
#ifndef SNIP_NN_MODEL_H
#define SNIP_NN_MODEL_H

#include <memory>
#include <vector>

#include "nn/block.h"
#include "nn/embedding.h"
#include "nn/loss.h"
#include "util/rng.h"

namespace snip {

/**
 * Embedding -> N transformer blocks -> final RMSNorm -> LM head.
 *
 * The LM head and embedding stay in high precision (the paper quantizes
 * only the linear layers inside transformer blocks, Sec. 2.1).
 */
class LlamaModel
{
  public:
    /**
     * @param config model hyperparameters (validated here)
     * @param seed   initialization seed; also seeds the fake quantizer's
     *               stochastic-rounding stream and the noise stream
     */
    LlamaModel(const ModelConfig &config, uint64_t seed);

    /**
     * Training forward for @p tokens laid out as batch x seq (flattened
     * row-major). Returns logits [batch*seq, vocab] and saves the state
     * backward() needs.
     */
    Tensor forward(const std::vector<int32_t> &tokens, int64_t batch,
                   int64_t seq);

    /**
     * One inference step, the only inference entry. The step carries
     * either the whole prompt of one freshly begun sequence (@p rows
     * tokens, kv.count == 1) or the next token of each of kv.count ==
     * @p rows sequences with history. Every row's K/V is appended to
     * the cache, and each sequence's last-row logits land in @p logits
     * [kv.count, vocab]. Touches no training state (nothing is saved
     * for backward()), and after warm-up performs zero heap
     * allocations: all scratch comes from workspace arenas.
     */
    void inferStep(const int32_t *tokens, int64_t rows,
                   const KvCacheHandle &kv, float *logits);

    /** Backprop from dLogits through the whole model. */
    void backward(const Tensor &dlogits);

    /** Convenience: forward + cross-entropy. Does not run backward. */
    LossResult forwardLoss(const std::vector<int32_t> &tokens,
                           const std::vector<int32_t> &targets,
                           int64_t batch, int64_t seq);

    /** Zero every parameter gradient. */
    void zeroGrad();

    /** All trainable parameters (embedding, norms, linears, head). */
    ParamList params();

    /** Quantizable linear layer by global index (block*7 + role). */
    Linear &linear(int idx);

    /** Apply a whole-model precision scheme (one entry per linear). */
    void setScheme(const PrecisionScheme &scheme);

    /** Currently applied scheme. */
    PrecisionScheme currentScheme() const;

    /** Attach @p tap to every quantizable linear (nullptr to detach). */
    void setTap(LinearTap *tap);

    /**
     * Inject N(0, eps^2/d * I) noise into the last block's output during
     * the next forward passes (Step 3 of Fig. 6). 0 disables.
     */
    void setForwardNoise(double eps) { fwd_noise_eps_ = eps; }

    /**
     * Inject noise into the gradient entering the last block during the
     * next backward passes (Step 2 of Fig. 6). 0 disables.
     */
    void setBackwardNoise(double eps) { bwd_noise_eps_ = eps; }

    /** Norm of the most recently injected noise (for Theorem 4.2). */
    double lastNoiseNorm() const { return last_noise_norm_; }

    /**
     * Norm of the last block's output during the most recent forward
     * pass, pre-noise (the forward injection point). Always recorded.
     */
    double lastHiddenNorm() const { return last_hidden_norm_; }

    /**
     * Norm of the gradient entering the last block during the most
     * recent backward pass, pre-noise (the backward injection point).
     */
    double lastHiddenGradNorm() const { return last_hidden_grad_norm_; }

    const ModelConfig &config() const { return config_; }
    const LayerRegistry &registry() const { return registry_; }

    /** The shared fake quantizer (tests reseed its stream). */
    FakeQuantizer &quantizer() { return quantizer_; }
    const FakeQuantizer &quantizer() const { return quantizer_; }

    /** Noise stream used for Steps 2-3 probes. */
    Rng &noiseRng() { return noise_rng_; }
    const Rng &noiseRng() const { return noise_rng_; }

  private:
    ModelConfig config_;
    LayerRegistry registry_;
    FakeQuantizer quantizer_;
    Rng noise_rng_;

    std::unique_ptr<Embedding> embedding_;
    std::vector<std::unique_ptr<TransformerBlock>> blocks_;
    std::unique_ptr<RMSNorm> final_norm_;
    std::unique_ptr<Linear> lm_head_;
    std::unique_ptr<Rope> rope_;

    double fwd_noise_eps_ = 0.0;
    double bwd_noise_eps_ = 0.0;
    double last_noise_norm_ = 0.0;
    double last_hidden_norm_ = 0.0;
    double last_hidden_grad_norm_ = 0.0;
};

} // namespace snip

#endif // SNIP_NN_MODEL_H
