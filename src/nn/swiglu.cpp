#include "nn/swiglu.h"

#include <cmath>

#include "runtime/thread_pool.h"
#include "runtime/workspace_arena.h"
#include "telemetry/obs.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace snip {

namespace {

/** Elements per parallelFor chunk of the training pointwise passes (a
 *  fig8 block's 12,288 hidden elements make 6 chunks; a tensor below
 *  one grain runs inline). Chunks only split independent elements, so
 *  the bits never depend on it. */
constexpr int64_t kSwiGluGrain = 2048;

/** The buffers of one pointwise pass; the parallelFor lambdas capture
 *  a pointer to it so their std::function stays in the small buffer. */
struct Pointwise
{
    const float *g, *u, *s, *dh;
    float *out_s, *out_h, *dg, *du;
};

} // namespace

SwiGluMlp::SwiGluMlp(const ModelConfig &config, int block, Rng &rng,
                     FakeQuantizer *quantizer)
{
    const int64_t d = config.d_model;
    const int64_t f = config.ffn_hidden;
    auto name = [block](const char *role) {
        return strformat("blk%02d.%s", block, role);
    };
    gate_ = std::make_unique<Linear>(name("Gate"), f, d, rng,
                                     config.init_std, quantizer);
    up_ = std::make_unique<Linear>(name("Up"), f, d, rng, config.init_std,
                                   quantizer);
    down_ = std::make_unique<Linear>(name("Down"), d, f, rng,
                                     config.init_std, quantizer);
}

Linear &
SwiGluMlp::linear(LayerRole role)
{
    switch (role) {
        case LayerRole::Gate:
            return *gate_;
        case LayerRole::Up:
            return *up_;
        case LayerRole::Down:
            return *down_;
        default:
            panic("not an MLP role");
    }
}

ParamList
SwiGluMlp::params()
{
    return {gate_->param(), up_->param(), down_->param()};
}

Tensor
SwiGluMlp::forward(const Tensor &x)
{
    g_ = gate_->forward(x);
    u_ = up_->forward(x);

    s_ = Tensor(g_.shape());
    Tensor h(g_.shape());
    {
        obs::Scope timed(telemetry::Timer::SwiGlu, trace::Category::Train,
                         "swiglu", "n", g_.numel(), "bwd", 0);
        Pointwise pw{};
        pw.g = g_.data();
        pw.u = u_.data();
        pw.out_s = s_.data();
        pw.out_h = h.data();
        const Pointwise *c = &pw;
        runtime::parallelFor(
            0, g_.numel(), kSwiGluGrain, [c](int64_t i0, int64_t i1) {
                const float *pg = c->g;
                const float *pu = c->u;
                float *ps = c->out_s;
                float *ph = c->out_h;
                for (int64_t i = i0; i < i1; ++i) {
                    const float sig = 1.0f / (1.0f + std::exp(-pg[i]));
                    ps[i] = pg[i] * sig;
                    ph[i] = ps[i] * pu[i];
                }
            });
    }
    return down_->forward(h);
}

void
SwiGluMlp::forwardInference(const float *x, int64_t rows, float *y)
{
    const int64_t f = gate_->outFeatures();
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    const size_t hidden = static_cast<size_t>(rows * f);
    float *g = arena.getFloats(hidden);
    float *u = arena.getFloats(hidden);
    float *h = arena.getFloats(hidden);
    gate_->forwardInference(x, rows, g);
    up_->forwardInference(x, rows, u);
    for (size_t i = 0; i < hidden; ++i) {
        const float sig = 1.0f / (1.0f + std::exp(-g[i]));
        const float s = g[i] * sig;
        h[i] = s * u[i];
    }
    down_->forwardInference(h, rows, y);
}

Tensor
SwiGluMlp::backward(const Tensor &dy)
{
    Tensor dh = down_->backward(dy);

    Tensor dgp(g_.shape());
    Tensor dup(g_.shape());
    {
        obs::Scope timed(telemetry::Timer::SwiGlu, trace::Category::Train,
                         "swiglu", "n", g_.numel(), "bwd", 1);
        Pointwise pw{};
        pw.g = g_.data();
        pw.u = u_.data();
        pw.s = s_.data();
        pw.dh = dh.data();
        pw.dg = dgp.data();
        pw.du = dup.data();
        const Pointwise *c = &pw;
        runtime::parallelFor(
            0, g_.numel(), kSwiGluGrain, [c](int64_t i0, int64_t i1) {
                const float *pdh = c->dh;
                const float *pg = c->g;
                const float *pu = c->u;
                const float *ps = c->s;
                float *pdg = c->dg;
                float *pdu = c->du;
                for (int64_t i = i0; i < i1; ++i) {
                    pdu[i] = pdh[i] * ps[i];
                    const float sig = 1.0f / (1.0f + std::exp(-pg[i]));
                    // d silu(g)/dg = sig * (1 + g * (1 - sig))
                    const float dsilu = sig * (1.0f + pg[i] * (1.0f - sig));
                    pdg[i] = pdh[i] * pu[i] * dsilu;
                }
            });
    }

    Tensor dx = gate_->backward(dgp);
    Tensor dxu = up_->backward(dup);
    const float *pxu = dxu.data();
    float *px = dx.data();
    for (int64_t i = 0; i < dx.numel(); ++i)
        px[i] += pxu[i];
    return dx;
}

} // namespace snip
