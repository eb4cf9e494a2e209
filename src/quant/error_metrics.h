/**
 * @file
 * Quantization-error measurements.
 *
 * SNIP's statistics pass records, for every layer tensor and every
 * candidate precision, the Frobenius norm of the quantization error
 * ||q(x) - x||_F (Sec. 3.1). The min-abs-err and min-rel-err baselines
 * rank layers by exactly these numbers.
 */
#ifndef SNIP_QUANT_ERROR_METRICS_H
#define SNIP_QUANT_ERROR_METRICS_H

#include "quant/quantizer.h"
#include "tensor/tensor.h"

namespace snip {

/** Error norms of quantizing one tensor under one config. */
struct QuantError
{
    /** ||q(x) - x||_F. */
    double abs_error = 0.0;
    /** ||q(x) - x||_F / ||x||_F (0 when ||x|| = 0). */
    double rel_error = 0.0;
    /** max_i |q(x)_i - x_i|. */
    double max_error = 0.0;
    /** ||x||_F of the unquantized tensor. */
    double input_norm = 0.0;
};

/**
 * Measure the error of fake-quantizing @p t under @p cfg.
 *
 * Stochastic configs are measured with nearest rounding so the statistic
 * is deterministic (the expected SR error has the same magnitude), and
 * no stream is drawn from. The quantized values are FakeQuantizer's
 * (fakeQuantize, bf16 fast path included), written into the calling
 * thread's workspace arena instead of a tensor copy, so concurrent
 * calls on distinct threads share nothing.
 */
QuantError measureQuantError(const Tensor &t, const QuantConfig &cfg);

} // namespace snip

#endif // SNIP_QUANT_ERROR_METRICS_H
