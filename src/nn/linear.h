/**
 * @file
 * Quantized linear layer — the operator SNIP tunes.
 *
 * Implements the mixed-precision GEMM recipe of Fig. 5: before each of
 * the three GEMMs, operands are fake-quantized according to the layer's
 * assigned LayerScheme; the GEMM output stays in high precision; the
 * master weight remains FP32. Gradients flow straight-through the
 * quantizers (standard STE), matching the paper's training framework.
 */
#ifndef SNIP_NN_LINEAR_H
#define SNIP_NN_LINEAR_H

#include <string>

#include "nn/param.h"
#include "quant/quantizer.h"
#include "schemes/scheme.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace snip {

class Rng;

/**
 * Observer interface over linear-layer tensors.
 *
 * SNIP's statistics pass (Step 1 of Fig. 6) registers a tap on every
 * linear layer and receives the tensors that exist only while a pass
 * streams, without Linear knowing anything about statistics. What the
 * layer keeps (its input, weight and accumulated gradient) is read
 * through its accessors instead.
 */
class LinearTap
{
  public:
    virtual ~LinearTap() = default;

    /** Called after the forward GEMM of layer @p idx with its output. */
    virtual void onForward(int idx, const Tensor &y) = 0;

    /** Called after the backward GEMMs of layer @p idx with the output
     *  gradient and the input gradient. */
    virtual void onBackward(int idx, const Tensor &dy,
                            const Tensor &dx) = 0;
};

/**
 * y = x W^T with per-GEMM fake quantization.
 *
 * One forward() must be followed by at most one backward() (the layer
 * saves its input activation in between).
 *
 * Every GEMM takes the packed pipeline (tensor/gemm.h), and the layer
 * hands each operand's quantization to it as a config: the GEMM driver
 * quantizes the operand into arena scratch and packs that, so the
 * layer keeps no quantized copy. A stochastic-rounding operand (FP4
 * gradients) carries a call key the layer draws from its FakeQuantizer
 * where quantizing a copy would draw it, so the stream's order, and
 * with it checkpoint resume, is that of FakeQuantizer-then-GEMM. The
 * layer's PackedWeightCache keeps the packed+quantized weight panels
 * alive across GEMMs — the training step's and every decode step's.
 * Mutating the weight through the non-const weight() accessor
 * invalidates the cache; the optimizer and checkpoint paths invalidate
 * globally via invalidateWeightPacks().
 */
class Linear
{
  public:
    /**
     * @param name         diagnostic name ("blk00.Q")
     * @param out_features rows of W
     * @param in_features  cols of W
     * @param rng          weight initialization stream
     * @param init_std     Gaussian init stddev
     * @param quantizer    shared fake quantizer (may be null: all GEMMs
     *                     then run unquantized FP32, used by tests)
     */
    Linear(std::string name, int64_t out_features, int64_t in_features,
           Rng &rng, float init_std, FakeQuantizer *quantizer = nullptr);

    /** Forward GEMM; saves @p x for the backward pass. */
    Tensor forward(const Tensor &x);

    /**
     * Inference-only forward on raw buffers: y[rows, out] = x W^T
     * with the layer's forward fake quantization applied. It is one
     * gemmPackedNT call: the GEMM driver quantizes the activation
     * into arena scratch, and the weight panel comes from the layer's
     * PackedWeightCache, which is repacked when the weight-pack epoch
     * moves, the scheme changes or weight() is taken. Saves nothing,
     * fires no tap, and after warm-up performs zero heap allocations.
     * Rows are bit-identical to the same rows of forward(), which
     * needs row-local activation scaling (tile- or row-wise); other
     * granularities hard-error, and so do stochastic-rounding
     * operands, a training-only feature.
     */
    void forwardInference(const float *x, int64_t rows, float *y);

    /** Backward GEMMs; accumulates into grad(), returns dX. */
    Tensor backward(const Tensor &dy);

    /** Assign this layer's precision scheme. */
    void setScheme(const LayerScheme &scheme) { scheme_ = scheme; }

    const LayerScheme &scheme() const { return scheme_; }

    /** Attach/detach the stats tap; @p idx is the global layer index. */
    void
    setTap(LinearTap *tap, int idx)
    {
        tap_ = tap;
        tap_idx_ = idx;
    }

    /** Master (FP32) weight [out, in]. The non-const accessor assumes
     *  the caller may mutate and drops the packed-weight cache. */
    Tensor &
    weight()
    {
        w_packs_.invalidate();
        return w_;
    }
    const Tensor &weight() const { return w_; }

    /** Weight gradient (same shape as weight). */
    Tensor &grad() { return grad_w_; }
    const Tensor &grad() const { return grad_w_; }

    /** Most recent saved input activation (valid after forward()). */
    const Tensor &savedInput() const { return saved_x_; }

    void zeroGrad() { grad_w_.zero(); }

    int64_t outFeatures() const { return w_.size(0); }
    int64_t inFeatures() const { return w_.size(1); }

    /** Parameter reference for the optimizer. */
    ParamRef param() { return {name_, &w_, &grad_w_}; }

    const std::string &name() const { return name_; }

  private:
    /**
     * How one operand of one GEMM is quantized under the current
     * scheme: by the GEMM driver under `cfg` (`quantize`), or not at
     * all (BF16 / no quantizer).
     */
    struct QuantPlan
    {
        bool quantize = false;
        QuantConfig cfg;

        const QuantConfig *config() const
        {
            return quantize ? &cfg : nullptr;
        }
    };

    /**
     * The plan of one operand. A stochastic plan for a non-empty
     * @p operand draws its call key from the quantizer's stream here,
     * as quantizing a copy of the operand would; without an operand
     * nothing is drawn.
     */
    QuantPlan plan(GemmKind kind, TensorRole role,
                   const Tensor *operand = nullptr);

    /** The weight cache, or null while implicit reuse is unsafe. */
    PackedWeightCache *activeCache();

    std::string name_;
    Tensor w_;
    Tensor grad_w_;
    Tensor saved_x_;
    LayerScheme scheme_;
    FakeQuantizer *quantizer_ = nullptr;
    LinearTap *tap_ = nullptr;
    int tap_idx_ = -1;
    /** Packed+quantized weight panels, one slot per GEMM orientation. */
    PackedWeightCache w_packs_;
};

} // namespace snip

#endif // SNIP_NN_LINEAR_H
