#include "optim/adamw.h"

#include <cmath>
#include <string>
#include <unordered_map>

#include "runtime/thread_pool.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace snip {

namespace {

/** Parameter tensors per parallelFor chunk of step() (fig8's 201
 *  tensors make 26 chunks). A tensor is never split: the largest holds
 *  a few thousand elements, too few to pay for a fan-out of its own. */
constexpr int64_t kParamGrain = 8;

} // namespace

AdamW::AdamW(ParamList params, AdamWConfig config)
    : params_(std::move(params)), config_(config),
      grad_sq_(params_.size())
{
    states_.reserve(params_.size());
    // step() sweeps the entries in parallel: a tensor named twice would
    // be updated twice, and raced on.
    std::unordered_map<const Tensor *, const std::string *> named;
    for (auto &p : params_) {
        SNIP_ASSERT(p.value && p.grad && p.value->sameShape(*p.grad),
                    "bad param ref: ", p.name);
        for (const Tensor *t : {p.value, p.grad}) {
            const auto seen = named.emplace(t, &p.name);
            SNIP_ASSERT(seen.second, "param list names one tensor twice: ",
                        *seen.first->second, " and ", p.name);
        }
        states_.push_back(
            {Tensor::zeros(p.value->shape()),
             Tensor::zeros(p.value->shape())});
    }
}

int
AdamW::paramIndexOf(const Tensor *w) const
{
    for (size_t i = 0; i < params_.size(); ++i) {
        if (params_[i].value == w)
            return static_cast<int>(i);
    }
    return -1;
}

void
AdamW::step()
{
    ++step_count_;
    // Every parameter is about to change: packed+quantized weight
    // panels cached from this step are stale.
    invalidateWeightPacks();
    const double t = static_cast<double>(step_count_);
    simd::AdamwCoeffs c;
    c.decay = 1.0 - config_.lr * config_.weight_decay;
    c.b1 = config_.beta1;
    c.one_minus_b1 = 1.0 - config_.beta1;
    c.b2 = config_.beta2;
    c.one_minus_b2 = 1.0 - config_.beta2;
    c.bias1 = 1.0 - std::pow(config_.beta1, t);
    c.bias2 = 1.0 - std::pow(config_.beta2, t);
    c.lr = config_.lr;
    c.eps = config_.eps;

    // Both sweeps run whole tensors per chunk, and each lambda captures
    // one pointer so its std::function stays in the small buffer.
    const int64_t n = static_cast<int64_t>(params_.size());

    // Global gradient-norm clipping: per-tensor sums of squares in
    // parallel, added serially in parameter order.
    if (config_.grad_clip > 0.0) {
        runtime::parallelFor(0, n, kParamGrain,
                             [this](int64_t i0, int64_t i1) {
                                 for (int64_t i = i0; i < i1; ++i)
                                     grad_sq_[i] =
                                         sumSquares(*params_[i].grad);
                             });
        double total_sq = 0.0;
        for (double sq : grad_sq_)
            total_sq += sq;
        const double norm = std::sqrt(total_sq);
        if (norm > config_.grad_clip)
            c.clip_scale = config_.grad_clip / norm;
    }

    struct Sweep
    {
        AdamW *self;
        const simd::KernelTable *kt;
        simd::AdamwCoeffs c;
    };
    const Sweep sweep{this, &simd::activeKernels(), c};
    const Sweep *ps = &sweep;
    runtime::parallelFor(0, n, kParamGrain, [ps](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            const ParamRef &p = ps->self->params_[i];
            State &s = ps->self->states_[i];
            ps->kt->adamwUpdate(p.value->data(), p.grad->data(),
                                s.m.data(), s.v.data(), p.value->numel(),
                                ps->c);
        }
    });
}

double
AdamW::updateSensitivityNorm(size_t idx) const
{
    SNIP_ASSERT(idx < params_.size());
    const float *g = params_[idx].grad->data();
    const float *m = states_[idx].m.data();
    const float *v = states_[idx].v.data();
    const int64_t n = params_[idx].value->numel();
    const double b1 = config_.beta1;
    const double b2 = config_.beta2;
    const double eps = config_.eps;

    double acc = 0.0;
    for (int64_t j = 0; j < n; ++j) {
        const double sv = std::sqrt(static_cast<double>(v[j]));
        const double denom = sv + eps;
        const double t1 = (1.0 - b1) / denom;
        const double t2 =
            sv > 0.0 ? (1.0 - b2) * static_cast<double>(m[j]) * g[j] /
                           (sv * denom * denom)
                     : 0.0;
        const double d = t1 - t2;
        acc += d * d;
    }
    // Theorem 4.1: ||h(g+dg)-h(g)|| ~ ||dh/dg||_F ||dg|| / sqrt(NK);
    // we return the norm already divided by sqrt(numel).
    return std::sqrt(acc) /
           std::sqrt(static_cast<double>(std::max<int64_t>(1, n)));
}

double
AdamW::updateScaleFactor() const
{
    const double t = static_cast<double>(step_count_ + 1);
    const double bias1 = 1.0 - std::pow(config_.beta1, t);
    const double bias2 = 1.0 - std::pow(config_.beta2, t);
    return config_.lr * std::sqrt(bias2) / bias1;
}

void
AdamW::restore(const std::vector<State> &states, int64_t step_count)
{
    SNIP_ASSERT(states.size() == states_.size());
    for (size_t i = 0; i < states.size(); ++i) {
        SNIP_ASSERT(states[i].m.sameShape(states_[i].m));
        SNIP_ASSERT(states[i].v.sameShape(states_[i].v));
        states_[i] = states[i];
    }
    step_count_ = step_count;
}

} // namespace snip
