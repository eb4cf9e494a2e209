/**
 * @file
 * Fake quantization of whole tensors, plus the per-role policies the
 * paper's training recipe assigns (Sec. 2.3 / 6.1).
 */
#ifndef SNIP_QUANT_QUANTIZER_H
#define SNIP_QUANT_QUANTIZER_H

#include "quant/codec.h"
#include "quant/scaling.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace snip {

/** Everything needed to fake-quantize one tensor. */
struct QuantConfig
{
    FloatFormat format = bf16();
    ScalingSpec scaling;
    Rounding rounding = Rounding::Nearest;
    /** Stochastic rounding's call key when the GEMM driver quantizes
     *  this operand (tensor/gemm.h). Per-call data, not policy: Linear
     *  draws it from its FakeQuantizer (nextCallKey()) for each
     *  stochastic operand; FakeQuantizer draws its own key and ignores
     *  this field, and describe() and the weight cache ignore it. */
    uint64_t call_key = 0;

    /** Short description like "fp4_e2m1/tilewise128/stochastic". */
    std::string describe() const;
};

/** Precision levels a layer can be assigned (the ILP's options build on
 *  these). BF16 means "leave the GEMM in high precision". FP6 (MX
 *  E3M2) demonstrates the paper's extensibility claim — "new methods
 *  can be incorporated as additional quantization options" (Sec. 3.2):
 *  it slots into the statistics, divergence and scheme machinery like
 *  any other level, though the paper's FP4-FLOP-fraction efficiency
 *  metric grants it no efficiency credit. */
enum class Precision { BF16 = 0, FP8 = 1, FP6 = 2, FP4 = 3 };

/** Name for tables ("BF16"/"FP8"/"FP6"/"FP4"). */
const char *precisionName(Precision p);

/** Bits per element of a precision level (16/8/6/4). */
int precisionBits(Precision p);

/** Role a tensor plays in a linear layer's GEMMs. */
enum class TensorRole { Activation, Weight, OutputGrad };

/**
 * The paper's quantization recipe for a (precision, role) pair:
 *  - activations & gradients: 1x128 tile-wise; weights: 128x128
 *    block-wise (DeepSeek-V3);
 *  - FP8 uses E4M3 for forward tensors, E5M2 for gradients;
 *  - FP4 uses E2M1 everywhere, with stochastic rounding on gradients.
 * BF16 quantizes tensor-wise with scale 1 semantics (the bf16 grid is
 * wide enough that no rescaling is needed).
 */
QuantConfig rolePolicy(Precision precision, TensorRole role);

/**
 * Ablation knob: override the rounding mode used for FP4 gradients
 * (default Rounding::Stochastic per the paper). Affects subsequent
 * rolePolicy() results process-wide; intended for the rounding-mode
 * ablation bench and tests only.
 */
void setFp4GradRounding(Rounding rounding);

/** Current FP4-gradient rounding mode. */
Rounding fp4GradRounding();

/**
 * Quantize-dequantize the row-major rows x cols matrix @p src into
 * @p dst (which may be @p src) under @p cfg, one scaling region at a
 * time: regionGrid lays the regions out and scaleRegion scales each
 * (quant/scaling.h). Nearest rounding snaps with
 * KernelTable::quantizeNearest. Stochastic rounding seeds region g's
 * stream from (@p call_key, g) and draws, in row-major order, one
 * uniform per element that needs rounding, for
 * KernelTable::quantizeStochastic. Regions run in parallel on the
 * shared thread pool and each writes only its own elements, so results
 * are bit-identical for any thread count. This is the one region loop
 * that quantizes: FakeQuantizer runs it in place, the GEMM driver
 * (tensor/gemm.h) into arena scratch. Allocates nothing.
 */
void quantizeMatrix(const float *src, float *dst, int64_t rows,
                    int64_t cols, const QuantConfig &cfg,
                    uint64_t call_key);

/**
 * FakeQuantizer's routine on raw storage: quantize-dequantize the
 * rows x cols matrix @p src into @p dst (which may be @p src). A
 * nearest-rounding bf16 config needs no rescaling, so it is one
 * round-to-nearest-even sweep over the elements; every other config
 * runs quantizeMatrix with @p call_key. measureQuantError runs it into
 * arena scratch. Allocates nothing.
 */
void fakeQuantize(const float *src, float *dst, int64_t rows, int64_t cols,
                  const QuantConfig &cfg, uint64_t call_key);

/**
 * Applies quantize-dequantize to tensors.
 *
 * Owns the Rng seeding stochastic rounding so repeated calls advance
 * one deterministic stream: each stochastic call on a non-empty tensor
 * draws one 64-bit call key from it (nextCallKey()) and hands it to
 * fakeQuantize, whose regions derive independent streams from it.
 * Nearest-rounding calls never touch the Rng, so distinct tensors may
 * be quantized concurrently with Nearest configs.
 */
class FakeQuantizer
{
  public:
    explicit FakeQuantizer(uint64_t seed = 0xF00DF00Dull);

    /** Quantize-dequantize a copy of @p t under @p cfg. */
    Tensor quantize(const Tensor &t, const QuantConfig &cfg);

    /** Quantize-dequantize @p t in place. */
    void quantizeInPlace(Tensor &t, const QuantConfig &cfg);

    /** Draw the next stochastic call's key from the stream, as
     *  quantizeInPlace does for a non-empty stochastic call. */
    uint64_t nextCallKey() { return rng_.nextU64(); }

    /** Access the rounding Rng (tests use this to fix the stream). */
    Rng &rng() { return rng_; }
    const Rng &rng() const { return rng_; }

  private:
    Rng rng_;
};

} // namespace snip

#endif // SNIP_QUANT_QUANTIZER_H
