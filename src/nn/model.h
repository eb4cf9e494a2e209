/**
 * @file
 * The full Llama-like language model (Fig. 4), with the instrumentation
 * hooks SNIP's statistics pipeline needs:
 *   - per-linear precision schemes (Fig. 5),
 *   - a LinearTap broadcast to all quantizable layers (Step 1, Fig. 6).
 *
 * The training forward and backward each split at the last block's
 * output, the noise probes' injection point (Steps 2-3, Theorem 4.2):
 * forwardBlocks() then forwardHead(), backwardHead() then
 * backwardBlocks(). The split points are the probes' restart points:
 * a probe perturbs its own copy of a tensor the statistics pass kept
 * there (core/noise_probe.h) and hands it to the half that starts
 * there, instead of rerunning the whole model. The model has no noise
 * hooks; every half is a plain function of its input. Restarting needs
 * the blocks' saved state to survive a backward: backward() and
 * backwardBlocks() take a retain flag. Without it Attention frees its
 * state (q/k/v, probabilities, context) at the end of its backward;
 * with it the state stays until the next forward replaces it. Every
 * other module keeps its saved state until the next forward anyway.
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
     *               stochastic-rounding stream and the probes' noise
     *               stream
     */
    LlamaModel(const ModelConfig &config, uint64_t seed);

    /**
     * Training forward for @p tokens laid out as batch x seq (flattened
     * row-major): forwardBlocks() then forwardHead(). Returns logits
     * [batch*seq, vocab] and saves the state backward() needs.
     */
    Tensor forward(const std::vector<int32_t> &tokens, int64_t batch,
                   int64_t seq);

    /**
     * First half of the training forward: the embedding and every
     * block. Returns the last block's output. Counts one training
     * forward (forwardCount()).
     */
    Tensor forwardBlocks(const std::vector<int32_t> &tokens, int64_t batch,
                         int64_t seq);

    /**
     * Second half of the training forward, from the last block's output
     * @p hidden: the final RMSNorm and the LM head. Returns logits.
     * @p hidden is taken by value so a caller can move in a tensor it
     * is done with; it is freed when the call's expression ends.
     */
    Tensor forwardHead(Tensor hidden);

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

    /**
     * Backprop from dLogits through the whole model: backwardHead()
     * then backwardBlocks(). @p retain keeps the blocks' saved state
     * (see the file comment); it is the statistics pass's and the
     * probes' flag, a training step leaves it off.
     */
    void backward(const Tensor &dlogits, bool retain = false);

    /**
     * First half of the backward: the LM head and the final RMSNorm.
     * Returns the gradient entering the last block.
     */
    Tensor backwardHead(const Tensor &dlogits);

    /**
     * Second half of the backward, from the gradient @p dhidden
     * entering the last block: backprops every block and the
     * embedding. @p retain as in backward(). @p dhidden is consumed:
     * its buffer is freed once the last block has backpropped it.
     */
    void backwardBlocks(Tensor dhidden, bool retain = false);

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

    /** Training forwards run so far (forwardBlocks() calls). The noise
     *  probes compare it with the statistics pass's to check that the
     *  blocks still hold that pass's saved state. */
    uint64_t forwardCount() const { return forward_count_; }

    const ModelConfig &config() const { return config_; }
    const LayerRegistry &registry() const { return registry_; }

    /** The shared fake quantizer (tests reseed its stream). */
    FakeQuantizer &quantizer() { return quantizer_; }
    const FakeQuantizer &quantizer() const { return quantizer_; }

    /** The noise stream of the Steps 2-3 probes (core/noise_probe.h).
     *  The model never draws from it; it carries the stream only so
     *  that it is seeded with the model and persisted with it
     *  (TrainerSnapshot, checkpoints). */
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

    uint64_t forward_count_ = 0;
};

} // namespace snip

#endif // SNIP_NN_MODEL_H
