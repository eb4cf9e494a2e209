/**
 * @file
 * AdamW optimizer (Loshchilov & Hutter) with FP32 master state.
 *
 * Beyond the standard update, the optimizer exposes the quantities
 * SNIP's weight-divergence analysis needs (Sec. 4.3.2): the per-layer
 * Frobenius norm of
 *
 *     (1-b1)/(sqrt(v)+eps) - (1-b2) * m * g / (sqrt(v) (sqrt(v)+eps)^2)
 *
 * (the derivative of the Adam update direction h(g) with respect to the
 * gradient) and the shared scale alpha*sqrt(1-b2^t)/(1-b1^t).
 */
#ifndef SNIP_OPTIM_ADAMW_H
#define SNIP_OPTIM_ADAMW_H

#include <vector>

#include "nn/param.h"
#include "tensor/tensor.h"

namespace snip {

/** Hyperparameters of AdamW. */
struct AdamWConfig
{
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.95;
    double eps = 1e-8;
    double weight_decay = 0.01;
    /** Global grad-norm clip; <= 0 disables clipping. */
    double grad_clip = 1.0;
};

/** Decoupled-weight-decay Adam over a fixed parameter list. */
class AdamW
{
  public:
    /** Moment state of one parameter tensor. */
    struct State
    {
        Tensor m;
        Tensor v;
    };

    /** No tensor may appear twice among the values and grads of
     *  @p params: step() updates the entries in parallel. */
    AdamW(ParamList params, AdamWConfig config);

    /**
     * Apply one update from the gradients currently in the params. The
     * grad-norm reduction and the update sweep run on the global pool,
     * whole tensors per chunk, through KernelTable::adamwUpdate;
     * results are bit-identical for any thread count and backend.
     */
    void step();

    /** Override the learning rate (schedules call this per step). */
    void setLr(double lr) { config_.lr = lr; }

    /** Number of step() calls so far (the Adam t counter). */
    int64_t stepCount() const { return step_count_; }

    const AdamWConfig &config() const { return config_; }

    size_t numParams() const { return params_.size(); }

    const ParamRef &param(size_t idx) const { return params_[idx]; }

    const State &state(size_t idx) const { return states_[idx]; }

    /** Index of the parameter whose value tensor is @p w, or -1. */
    int paramIndexOf(const Tensor *w) const;

    /**
     * ||dh/dg||_F for parameter @p idx using its current gradient and
     * moments, divided by sqrt(numel) per the Theorem 4.1 estimate.
     * Returns the sensitivity of the Adam update to gradient error.
     */
    double updateSensitivityNorm(size_t idx) const;

    /** alpha * sqrt(1-b2^t) / (1-b1^t) at the *next* step. */
    double updateScaleFactor() const;

    /** Deep-copy optimizer state (checkpointing). */
    std::vector<State> snapshot() const { return states_; }

    /** Restore a snapshot taken on an identical parameter list (every
     *  m and v must have its parameter's shape). */
    void restore(const std::vector<State> &states, int64_t step_count);

  private:
    ParamList params_;
    AdamWConfig config_;
    std::vector<State> states_;
    /** Per-tensor gradient sums of squares, one slot per parameter:
     *  step() fills them in parallel and adds them in parameter order. */
    std::vector<double> grad_sq_;
    int64_t step_count_ = 0;
};

} // namespace snip

#endif // SNIP_OPTIM_ADAMW_H
