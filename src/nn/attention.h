/**
 * @file
 * Causal multi-head self-attention with RoPE and optional grouped-query
 * attention (GQA).
 *
 * The four projections (Q, K, V, O) are quantizable Linear layers; the
 * attention math itself (scores, softmax, context) stays in high
 * precision, as in the paper's framework (Sec. 2.2).
 *
 * The attention math runs as one batched schedule: the (batch, head)
 * iteration space fans over runtime::parallelFor with deterministic
 * ownership (workers own whole (b,h) slices; GQA dK/dV reduce per kv
 * head in a fixed sequential order), the per-head GEMMs run as single
 * strided-batch calls (tensor/gemm.h gemmBatched*), the scale+mask+
 * softmax loops run as fused kernels (simd/kernels.h, bit-exact across
 * backends), and all scratch lives in per-thread workspace arenas —
 * zero steady-state heap allocations in the core. Results are
 * bit-identical for any thread count.
 *
 * Inference (Attention::forwardInference) reuses the same core for a
 * fresh sequence's prompt and walks the paged KV cache in place for
 * decode rows; the training forward takes no cache and inference
 * saves no state.
 *
 * The training forward's saved state (q/k/v, probabilities, context) is
 * the only module state freed before the next forward: a plain
 * backward() releases it. SNIP's statistics pass and noise probes
 * backprop one forward up to three times, so they pass retain, which
 * keeps the state until the next forward() replaces it
 * (LlamaModel::backwardBlocks).
 */
#ifndef SNIP_NN_ATTENTION_H
#define SNIP_NN_ATTENTION_H

#include <memory>

#include "nn/layer_registry.h"
#include "nn/linear.h"
#include "nn/rope.h"

namespace snip {

namespace serve {
class KvCache;
} // namespace serve

/**
 * Non-owning view of the KV cache rows an inference step touches: one
 * cache plus the sequence slot of each sequence in the step.
 */
struct KvCacheHandle
{
    serve::KvCache *cache = nullptr;
    /** Sequence slot per sequence, [count]. Must outlive the call. */
    const int64_t *seq_ids = nullptr;
    int64_t count = 0;

    bool
    valid() const
    {
        return cache != nullptr && seq_ids != nullptr && count > 0;
    }
};

/** Dimensions of one attention invocation (head_dim applies to both
 *  query and kv heads; n_heads must be a multiple of n_kv_heads). */
struct AttnShape
{
    int64_t batch;
    int64_t seq;
    int64_t n_heads;
    int64_t n_kv_heads;
    int64_t head_dim;
};

/**
 * The attention core: scores, scale+causal-mask+softmax, context —
 * everything between the QKV projections and the output projection.
 * Exposed so the zero-allocation harness (tests/test_workspace.cpp)
 * and the benches can drive it on preallocated buffers.
 *
 * @param q     post-RoPE queries   [batch*seq, n_heads*head_dim]
 * @param k     post-RoPE keys      [batch*seq, n_kv_heads*head_dim]
 * @param v     values              [batch*seq, n_kv_heads*head_dim]
 * @param probs softmax probabilities out, [batch*n_heads*seq, seq]
 * @param ctx   attention output pre-O, [batch*seq, n_heads*head_dim]
 */
void attentionForwardCore(const AttnShape &s, const float *q,
                          const float *k, const float *v, float *probs,
                          float *ctx);

/**
 * Backward through the attention core. dq/dk/dv must be zeroed by the
 * caller (gradients are accumulated, pre-inverse-RoPE); shapes match
 * q/k/v, @p dctx matches ctx.
 */
void attentionBackwardCore(const AttnShape &s, const float *q,
                           const float *k, const float *v,
                           const float *probs, const float *dctx,
                           float *dq, float *dk, float *dv);

/** Self-attention sub-block of one transformer block. */
class Attention
{
  public:
    /**
     * @param config    model hyperparameters (GQA shape validated here:
     *                  positive head counts, d_model % n_heads == 0,
     *                  n_heads % n_kv_heads == 0)
     * @param block     owning block index (for layer names)
     * @param rng       weight init stream
     * @param quantizer shared fake quantizer for the projections
     * @param rope      shared rotary tables (non-owning, must outlive)
     */
    Attention(const ModelConfig &config, int block, Rng &rng,
              FakeQuantizer *quantizer, const Rope *rope);

    /**
     * Training forward: x is [batch*seq, d_model]; returns the same
     * shape and saves the state backward() needs.
     */
    Tensor forward(const Tensor &x, int64_t batch, int64_t seq);

    /**
     * Inference forward on raw [rows, d_model] buffers: no Tensor
     * allocation, no saved state, zero heap allocations after warm-up.
     * A step carries one of two shapes:
     *  - the whole prompt of one sequence whose cache is empty
     *    (kv.count == 1): the rows attend each other through
     *    attentionForwardCore on their fp32 K/V, then every row's K/V
     *    is appended to the cache;
     *  - one token per sequence with history (kv.count == rows): the
     *    new K/V rows are appended and each query attends the cached
     *    history in place through the kvAttend walker.
     * Output rows are bit-identical to the same rows of a training
     * forward over the same prefix: prompt rows in either cache mode,
     * decode rows with an FP32-mode cache.
     */
    void forwardInference(const float *x, int64_t rows,
                          const KvCacheHandle &kv, float *y);

    /**
     * Backprop through projections and attention math. Unless
     * @p retain is set, releases the saved forward state (q/k/v,
     * probabilities, context) on return, so peak memory drops between
     * steps, and a new forward() must precede the next backward().
     * With @p retain the state stays, and a second backward() from it
     * returns the same gradients; the next forward() replaces it.
     */
    Tensor backward(const Tensor &dy, bool retain = false);

    /** Access a projection by role (Q/K/V/O only). */
    Linear &linear(LayerRole role);

    /** Parameters of the four projections. */
    ParamList params();

    /** Bytes pinned by the saved forward state (q/k/v, probs, ctx):
     *  positive after forward() and after a retaining backward(), 0
     *  after backward() releases it. */
    int64_t savedStateBytes() const;

  private:
    ModelConfig config_;
    int block_;
    const Rope *rope_;
    std::unique_ptr<Linear> wq_, wk_, wv_, wo_;

    // Saved forward state (released at the end of a non-retaining
    // backward()).
    int64_t batch_ = 0, seq_ = 0;
    Tensor q_, k_, v_;   ///< post-RoPE projections, [T, dims]
    Tensor probs_;       ///< softmax probabilities, [B*H*S, S]
    Tensor ctx_;         ///< attention output pre-O, [T, H*hd]
};

} // namespace snip

#endif // SNIP_NN_ATTENTION_H
