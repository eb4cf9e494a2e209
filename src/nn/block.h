/**
 * @file
 * One pre-norm transformer block (Fig. 4):
 *   h = x + Attn(RMSNorm(x));  y = h + SwiGLU-MLP(RMSNorm(h)).
 */
#ifndef SNIP_NN_BLOCK_H
#define SNIP_NN_BLOCK_H

#include <memory>

#include "nn/attention.h"
#include "nn/rmsnorm.h"
#include "nn/swiglu.h"

namespace snip {

/** Transformer block owning its norms, attention and MLP. */
class TransformerBlock
{
  public:
    TransformerBlock(const ModelConfig &config, int block, Rng &rng,
                     FakeQuantizer *quantizer, const Rope *rope);

    /** Training forward; saves the state backward() needs. */
    Tensor forward(const Tensor &x, int64_t batch, int64_t seq);

    /**
     * Inference forward through the block, in place: @p x is
     * [rows, d_model] and is updated to the block output. The rows are
     * one fresh sequence's prompt or one token per sequence with
     * history (Attention::forwardInference). Uses arena scratch only;
     * zero heap allocations after warm-up.
     */
    void forwardInference(float *x, int64_t rows, const KvCacheHandle &kv);

    /** Backprop through the block; @p retain keeps the saved state
     *  (Attention::backward). */
    Tensor backward(const Tensor &dy, bool retain = false);

    /** Access any of the seven quantizable linears by role. */
    Linear &linear(LayerRole role);

    ParamList params();

  private:
    std::unique_ptr<RMSNorm> norm1_, norm2_;
    std::unique_ptr<Attention> attn_;
    std::unique_ptr<SwiGluMlp> mlp_;
};

} // namespace snip

#endif // SNIP_NN_BLOCK_H
