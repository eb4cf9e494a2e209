/**
 * @file
 * Single-precision GEMM: one packed, cache-blocked pipeline.
 *
 * Three transpose variants cover the needs of linear-layer training:
 *   - NT: C[M,N] = A[M,K] * B[N,K]^T   (forward:  Y  = X  W^T)
 *   - NN: C[M,N] = A[M,K] * B[K,N]     (backward: dX = dY W)
 *   - TN: C[M,N] = A[K,M]^T * B[K,N]   (backward: dW = dY^T X)
 *
 * Every GEMM runs the PACKED pipeline: operand panels are copied once
 * into contiguous, strip-major buffers (simd/kernels.h PackAFn/PackBFn,
 * kGemmPackMR x kGemmPackNR register tiles) staged in per-thread
 * workspace arenas (runtime/workspace_arena.h), and the block
 * microkernel streams them with zero steady-state heap allocations.
 * An M-block too thin to fill one A strip (decode rows, say) skips the
 * A pack and streams its row-major rows in place against the packed B
 * panel (GemmPackedRowsFn). The quantizing entry points quantize, then
 * pack: each quantized operand is first quantized whole into arena
 * scratch by quantizeMatrix (quant/quantizer.h), region-parallel on
 * the pool, and the packs copy the result. An optional
 * PackedWeightCache keeps a weight's packed+quantized panel alive
 * across GEMMs.
 *
 * Determinism contract: every path fans kGemmBlockM-row M-blocks of C
 * (or whole batch items) out over the thread pool; workers own whole
 * rows of C, and every C element is formed the same way — a zero
 * accumulator, k-products added in ascending k in one lane, one add
 * into C — whichever kernel runs it. Within one backend, results are
 * therefore bit-identical for any thread count, any batching and any
 * M split (a decode row equals the same row of a full-sequence GEMM).
 * Independent GEMMs may also run concurrently, each whole on one pool
 * worker (Linear's grouped GEMMs, nn/linear.h): nested parallelFors
 * then run inline, which changes no partition and so no bit.
 */
#ifndef SNIP_TENSOR_GEMM_H
#define SNIP_TENSOR_GEMM_H

#include <cstdint>
#include <memory>

#include "quant/quantizer.h"
#include "tensor/tensor.h"

namespace snip {

/** C[M,N] (+)= A[M,K] * B[N,K]^T. */
void gemmNT(const float *a, const float *b, float *c, int64_t m, int64_t n,
            int64_t k, bool accumulate = false);

/** C[M,N] (+)= A[M,K] * B[K,N]. */
void gemmNN(const float *a, const float *b, float *c, int64_t m, int64_t n,
            int64_t k, bool accumulate = false);

/** C[M,N] (+)= A[K,M]^T * B[K,N]. */
void gemmTN(const float *a, const float *b, float *c, int64_t m, int64_t n,
            int64_t k, bool accumulate = false);

// ------------------------------------------------ strided-batch GEMM
//
// count independent GEMMs of one shape in a single call: item i reads
// A_i = a + i*a_stride and writes C through the variant-specific
// grouping below. The batched driver fans ITEMS (not M-blocks) over
// the thread pool — each worker owns whole items, so per-item
// accumulation order is identical to running the per-item entry
// points one by one, for any thread count. A batch of small GEMMs
// (per-head attention) amortizes its B packs across the group that
// shares each panel.

/**
 * C_i[M,N] (+)= A_i[M,K] * B_{i/group}[N,K]^T for i in [0, count).
 * B_j = b + j*b_stride: @p group consecutive items share one B
 * operand (GQA query heads reading one kv head), whose packed panel
 * is built once and streamed by all of them. count must be a
 * multiple of group.
 */
void gemmBatchedNT(const float *a, int64_t a_stride, const float *b,
                   int64_t b_stride, float *c, int64_t c_stride,
                   int64_t count, int64_t m, int64_t n, int64_t k,
                   int64_t group = 1, bool accumulate = false);

/** C_i[M,N] (+)= A_i[M,K] * B_{i/group}[K,N]; grouping as in NT. */
void gemmBatchedNN(const float *a, int64_t a_stride, const float *b,
                   int64_t b_stride, float *c, int64_t c_stride,
                   int64_t count, int64_t m, int64_t n, int64_t k,
                   int64_t group = 1, bool accumulate = false);

/**
 * C_{i/group}[M,N] (+)= sum over each group of A_i[K,M]^T * B_i[K,N]:
 * here @p group consecutive items REDUCE into one shared C (GQA
 * dK/dV accumulation). Each worker owns whole groups and adds the
 * items of a group in ascending order (each item's product is fully
 * formed in a scratch panel, then added — the same fixed order as a
 * serial compute-then-scatter-add loop), so the reduction is
 * bit-identical for any thread count.
 */
void gemmBatchedTN(const float *a, int64_t a_stride, const float *b,
                   int64_t b_stride, float *c, int64_t c_stride,
                   int64_t count, int64_t m, int64_t n, int64_t k,
                   int64_t group = 1, bool accumulate = false);

/** Y = X * W^T for rank-2 tensors X[M,K], W[N,K]. */
Tensor matmulNT(const Tensor &x, const Tensor &w);

/** Y = A * B for rank-2 tensors A[M,K], B[K,N]. */
Tensor matmulNN(const Tensor &a, const Tensor &b);

/** Y = A^T * B for rank-2 tensors A[K,M], B[K,N]. */
Tensor matmulTN(const Tensor &a, const Tensor &b);

// ----------------------------------------------- packed-weight cache

/**
 * Per-layer cache of packed (+ quantized) weight panels, one slot per
 * GEMM orientation (Fwd consumes W as the NT B operand, Dgrad as the
 * NN B operand). A hit skips the whole quantize + pack phase, so
 * within one training step the weight is quantized and packed once per
 * orientation no matter how many forwards run (stats passes, probes,
 * pipeline microbatches). A rebuild runs outside the cache's lock.
 *
 * Invalidation: invalidateWeightPacks() (bumped by the optimizer step
 * and checkpoint restore) stales every cache in the process;
 * invalidate() stales one layer (Linear calls it when the weight is
 * mutated through its non-const accessor). Buffers are retained across
 * invalidations, so steady-state repacks allocate nothing.
 *
 * Not thread-safe against concurrent GEMMs on the SAME cache (a layer
 * runs at most one cached GEMM at a time: its Wgrad, which may run
 * beside its Dgrad, takes no cache); distinct layers may pack
 * concurrently.
 */
class PackedWeightCache
{
  public:
    PackedWeightCache();
    ~PackedWeightCache();

    PackedWeightCache(const PackedWeightCache &) = delete;
    PackedWeightCache &operator=(const PackedWeightCache &) = delete;

    /** Drop validity (weight content changed); keeps the buffers, and
     *  disables implicit reuse for the rest of the current epoch (a
     *  mutable reference may still be live). */
    void invalidate();

    /**
     * True when Linear may hand this cache to the GEMM implicitly:
     * some weight mutator has announced itself at least once
     * (invalidateWeightPacks(), i.e. the single-writer training
     * discipline is established) and no mutable reference escaped this
     * layer during the current epoch. Explicit callers of the
     * gemmPacked* entry points may pass the cache regardless — passing
     * it IS the opt-in.
     */
    bool implicitCachingActive() const;

    struct Impl;
    Impl &impl() { return *impl_; }

  private:
    std::unique_ptr<Impl> impl_;
};

/** Stale every PackedWeightCache in the process. Weight mutators
 *  (optimizer step, checkpoint restore) must call this. */
void invalidateWeightPacks();

// ------------------------------------- quantizing packed entry points
//
// The packed pipeline with operand quantization. aq/bq describe the
// fake quantization of each operand (null = use the operand as-is;
// bf16 configs are rejected: bf16 GEMMs pass the FP32 operand through).
// The GEMM driver quantizes each quantized operand into arena scratch
// with quantizeMatrix, FakeQuantizer's region routine, before the B
// pack and the M-block fan-out, so results are bit-identical to
// quantizing a copy with FakeQuantizer and running the GEMM on it. A
// stochastic-rounding config quantizes with its call_key, the key
// FakeQuantizer would have drawn for that copy; a cached B must round
// to nearest. After warm-up these perform zero heap allocations
// (tests/test_workspace.cpp counts).

/** C[M,N] (+)= q(A[M,K]) * q(B[N,K])^T; @p bcache may cache packed B. */
void gemmPackedNT(const float *a, int64_t m, int64_t k,
                  const QuantConfig *aq, const float *b, int64_t n,
                  const QuantConfig *bq, PackedWeightCache *bcache,
                  float *c, bool accumulate = false);

/** C[M,N] (+)= q(A[M,K]) * q(B[K,N]); @p bcache may cache packed B. */
void gemmPackedNN(const float *a, int64_t m, int64_t k,
                  const QuantConfig *aq, const float *b, int64_t n,
                  const QuantConfig *bq, PackedWeightCache *bcache,
                  float *c, bool accumulate = false);

/** C[M,N] (+)= q(A[K,M])^T * q(B[K,N]) (no cache: both Wgrad operands
 *  change every step). */
void gemmPackedTN(const float *a, int64_t m, int64_t k,
                  const QuantConfig *aq, const float *b, int64_t n,
                  const QuantConfig *bq, float *c,
                  bool accumulate = false);

/** Y = q(X) * q(W)^T (packed, quantized operands). */
Tensor quantMatmulNT(const Tensor &x, const QuantConfig *xq,
                     const Tensor &w, const QuantConfig *wq,
                     PackedWeightCache *wcache);

/** Y = q(dY) * q(W) (packed, quantized operands). */
Tensor quantMatmulNN(const Tensor &dy, const QuantConfig *dq,
                     const Tensor &w, const QuantConfig *wq,
                     PackedWeightCache *wcache);

/** dW (+)= q(dY)^T * q(X) (packed, quantized operands). */
void quantGemmTN(const Tensor &dy, const QuantConfig *dq,
                 const Tensor &x, const QuantConfig *xq, Tensor &dw,
                 bool accumulate);

} // namespace snip

#endif // SNIP_TENSOR_GEMM_H
