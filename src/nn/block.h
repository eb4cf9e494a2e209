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

    /** Train/Prefill forward; @p kv is required for Prefill (the
     *  attention appends its K/V rows there). */
    Tensor forward(const Tensor &x, int64_t batch, int64_t seq,
                   ForwardMode mode, const KvCacheHandle &kv = {});

    /**
     * Single-token decode through the block, in place: @p x is
     * [count, d_model] and is updated to the block output. Uses arena
     * scratch only; zero heap allocations after warm-up.
     */
    void decodeForward(float *x, int64_t count, const KvCacheHandle &kv);

    Tensor backward(const Tensor &dy);

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
