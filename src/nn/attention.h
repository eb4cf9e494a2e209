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
 */
#ifndef SNIP_NN_ATTENTION_H
#define SNIP_NN_ATTENTION_H

#include <memory>

#include "nn/forward_mode.h"
#include "nn/layer_registry.h"
#include "nn/linear.h"
#include "nn/rope.h"

namespace snip {

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
     * x is [batch*seq, d_model]; returns the same shape.
     *
     * Train saves the state backward() needs. Prefill instead appends
     * every post-RoPE K/V row to @p kv (cache per kv.seq_ids[b], which
     * must be freshly begun) and releases the saved backward state — a
     * prefill cannot be backpropagated. Decode is not served here; use
     * decodeForward().
     */
    Tensor forward(const Tensor &x, int64_t batch, int64_t seq,
                   ForwardMode mode, const KvCacheHandle &kv = {});

    /**
     * Single-token decode step for @p count independent sequences.
     * x/y are [count, d_model] raw buffers (arena-friendly: no Tensor
     * allocation, no saved state, zero heap allocations after
     * warm-up). For each row i the query attends over the full cached
     * history of kv.seq_ids[i] plus the new token, whose K/V rows are
     * appended to the cache. Output rows are bit-identical to the last
     * row of a Train/Prefill forward over the same prefix with an
     * FP32-mode cache.
     */
    void decodeForward(const float *x, int64_t count,
                       const KvCacheHandle &kv, float *y);

    /**
     * Backprop through projections and attention math. Releases the
     * saved forward state (q/k/v, probabilities, context) on return,
     * so peak memory drops between steps; a new forward() must precede
     * the next backward(). Hard error unless the preceding forward ran
     * in Train mode.
     */
    Tensor backward(const Tensor &dy);

    /** Access a projection by role (Q/K/V/O only). */
    Linear &linear(LayerRole role);

    /** Parameters of the four projections. */
    ParamList params();

    /** Bytes pinned by the saved forward state (q/k/v, probs, ctx):
     *  positive after forward(), 0 after backward() releases it. */
    int64_t savedStateBytes() const;

  private:
    ModelConfig config_;
    int block_;
    const Rope *rope_;
    std::unique_ptr<Linear> wq_, wk_, wv_, wo_;

    // Saved forward state (released at the end of backward()).
    ForwardMode last_mode_ = ForwardMode::Train;
    int64_t batch_ = 0, seq_ = 0;
    Tensor q_, k_, v_;   ///< post-RoPE projections, [T, dims]
    Tensor probs_;       ///< softmax probabilities, [B*H*S, S]
    Tensor ctx_;         ///< attention output pre-O, [T, H*hd]
};

} // namespace snip

#endif // SNIP_NN_ATTENTION_H
