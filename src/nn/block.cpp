#include "nn/block.h"

#include "runtime/workspace_arena.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace snip {

TransformerBlock::TransformerBlock(const ModelConfig &config, int block,
                                   Rng &rng, FakeQuantizer *quantizer,
                                   const Rope *rope)
{
    norm1_ = std::make_unique<RMSNorm>(
        strformat("blk%02d.norm1", block), config.d_model,
        config.norm_eps);
    norm2_ = std::make_unique<RMSNorm>(
        strformat("blk%02d.norm2", block), config.d_model,
        config.norm_eps);
    attn_ = std::make_unique<Attention>(config, block, rng, quantizer,
                                        rope);
    mlp_ = std::make_unique<SwiGluMlp>(config, block, rng, quantizer);
}

Linear &
TransformerBlock::linear(LayerRole role)
{
    switch (role) {
        case LayerRole::Q:
        case LayerRole::K:
        case LayerRole::V:
        case LayerRole::O:
            return attn_->linear(role);
        default:
            return mlp_->linear(role);
    }
}

ParamList
TransformerBlock::params()
{
    ParamList out;
    out.push_back(norm1_->param());
    for (auto &p : attn_->params())
        out.push_back(p);
    out.push_back(norm2_->param());
    for (auto &p : mlp_->params())
        out.push_back(p);
    return out;
}

Tensor
TransformerBlock::forward(const Tensor &x, int64_t batch, int64_t seq)
{
    Tensor h = attn_->forward(norm1_->forward(x), batch, seq);
    addInPlace(h, x);
    Tensor y = mlp_->forward(norm2_->forward(h));
    addInPlace(y, h);
    return y;
}

void
TransformerBlock::forwardInference(float *x, int64_t rows,
                                   const KvCacheHandle &kv)
{
    const int64_t d = norm1_->dim();
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    const size_t n = static_cast<size_t>(rows * d);
    float *nx = arena.getFloats(n);
    float *h = arena.getFloats(n);

    // h = Attn(norm1(x)); x += h — float addition commutes bitwise, so
    // the in-place accumulate matches the train path's h + x exactly.
    norm1_->forwardInference(x, rows, nx);
    attn_->forwardInference(nx, rows, kv, h);
    for (size_t i = 0; i < n; ++i)
        x[i] += h[i];

    norm2_->forwardInference(x, rows, nx);
    mlp_->forwardInference(nx, rows, h);
    for (size_t i = 0; i < n; ++i)
        x[i] += h[i];
}

Tensor
TransformerBlock::backward(const Tensor &dy, bool retain)
{
    Tensor dh = norm2_->backward(mlp_->backward(dy));
    addInPlace(dh, dy);
    Tensor dx = norm1_->backward(attn_->backward(dh, retain));
    addInPlace(dx, dh);
    return dx;
}

} // namespace snip
