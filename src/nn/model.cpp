#include "nn/model.h"

#include <cmath>
#include <cstring>

#include "runtime/workspace_arena.h"
#include "tensor/ops.h"

namespace snip {

namespace {

/** Add N(0, eps^2/numel) noise to t; returns the noise norm. */
double
injectNoise(Tensor &t, double eps, Rng &rng)
{
    // Theorem 4.1 draws delta ~ N(0, eps^2/d I) so that E||delta|| = eps.
    const double stddev =
        eps / std::sqrt(static_cast<double>(std::max<int64_t>(
                  1, t.numel())));
    double acc = 0.0;
    float *p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) {
        const double n = rng.nextGaussian() * stddev;
        p[i] += static_cast<float>(n);
        acc += n * n;
    }
    return std::sqrt(acc);
}

} // namespace

LlamaModel::LlamaModel(const ModelConfig &config, uint64_t seed)
    : config_(config),
      registry_(config),
      quantizer_(seed ^ 0x51A9C0DEull),
      noise_rng_(seed ^ 0x0123456789ABCDEFull)
{
    Rng init_rng(seed);
    rope_ = std::make_unique<Rope>(config.max_seq, config.headDim(),
                                   config.rope_theta);
    embedding_ = std::make_unique<Embedding>(
        "embedding", config.vocab_size, config.d_model, init_rng,
        config.init_std);
    for (int b = 0; b < config.n_blocks; ++b) {
        blocks_.push_back(std::make_unique<TransformerBlock>(
            config, b, init_rng, &quantizer_, rope_.get()));
    }
    final_norm_ = std::make_unique<RMSNorm>("final_norm", config.d_model,
                                            config.norm_eps);
    // LM head is unquantized (quantizer = nullptr): the paper keeps the
    // output projection in high precision.
    lm_head_ = std::make_unique<Linear>("lm_head", config.vocab_size,
                                        config.d_model, init_rng,
                                        config.init_std, nullptr);
}

Tensor
LlamaModel::forward(const std::vector<int32_t> &tokens, int64_t batch,
                    int64_t seq, ForwardMode mode,
                    const KvCacheHandle &kv)
{
    SNIP_ASSERT(static_cast<int64_t>(tokens.size()) == batch * seq,
                "token count != batch*seq");
    SNIP_ASSERT(seq <= config_.max_seq, "sequence too long");

    if (mode == ForwardMode::Decode) {
        SNIP_ASSERT(seq == 1, "Decode forward takes one token per "
                              "sequence; use decodeStep directly");
        Tensor logits(batch, config_.vocab_size);
        decodeStep(tokens.data(), batch, kv, logits.data());
        return logits;
    }
    if (mode == ForwardMode::Prefill) {
        SNIP_ASSERT(kv.valid() && kv.count == batch,
                    "prefill needs a cache handle covering every batch "
                    "row");
        SNIP_ASSERT(fwd_noise_eps_ == 0.0,
                    "noise injection is a training probe; disable it "
                    "before prefill");
    }
    batch_ = batch;
    seq_ = seq;

    Tensor x = embedding_->forward(tokens);
    for (auto &blk : blocks_)
        x = blk->forward(x, batch, seq, mode, kv);

    last_hidden_norm_ = frobeniusNorm(x);
    if (fwd_noise_eps_ > 0.0)
        last_noise_norm_ = injectNoise(x, fwd_noise_eps_, noise_rng_);

    Tensor xn = final_norm_->forward(x);
    return lm_head_->forward(xn);
}

void
LlamaModel::decodeStep(const int32_t *tokens, int64_t count,
                       const KvCacheHandle &kv, float *logits)
{
    SNIP_ASSERT(kv.valid() && kv.count == count,
                "decode needs a cache handle covering every row");
    const int64_t d = config_.d_model;
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    float *x = arena.getFloats(static_cast<size_t>(count * d));
    float *xn = arena.getFloats(static_cast<size_t>(count * d));

    const float *table = embedding_->table().data();
    for (int64_t i = 0; i < count; ++i) {
        const int32_t t = tokens[i];
        SNIP_ASSERT(t >= 0 && t < config_.vocab_size,
                    "token id out of range");
        std::memcpy(x + i * d, table + static_cast<int64_t>(t) * d,
                    static_cast<size_t>(d) * sizeof(float));
    }

    for (auto &blk : blocks_)
        blk->decodeForward(x, count, kv);

    final_norm_->forwardInference(x, count, xn);
    lm_head_->forwardInference(xn, count, logits);
}

void
LlamaModel::backward(const Tensor &dlogits)
{
    Tensor dxn = lm_head_->backward(dlogits);
    Tensor dx = final_norm_->backward(dxn);

    last_hidden_grad_norm_ = frobeniusNorm(dx);
    if (bwd_noise_eps_ > 0.0)
        last_noise_norm_ = injectNoise(dx, bwd_noise_eps_, noise_rng_);

    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
        dx = (*it)->backward(dx);
    embedding_->backward(dx);
}

LossResult
LlamaModel::forwardLoss(const std::vector<int32_t> &tokens,
                        const std::vector<int32_t> &targets, int64_t batch,
                        int64_t seq)
{
    Tensor logits = forward(tokens, batch, seq, ForwardMode::Train);
    return softmaxCrossEntropy(logits, targets);
}

void
LlamaModel::zeroGrad()
{
    for (auto &p : params())
        p.grad->zero();
}

ParamList
LlamaModel::params()
{
    ParamList out;
    out.push_back(embedding_->param());
    for (auto &blk : blocks_)
        for (auto &p : blk->params())
            out.push_back(p);
    out.push_back(final_norm_->param());
    out.push_back(lm_head_->param());
    return out;
}

Linear &
LlamaModel::linear(int idx)
{
    SNIP_ASSERT(idx >= 0 && idx < registry_.numLinear());
    return blocks_[static_cast<size_t>(registry_.blockOf(idx))]->linear(
        registry_.roleOf(idx));
}

void
LlamaModel::setScheme(const PrecisionScheme &scheme)
{
    SNIP_ASSERT(scheme.layers.size() ==
                static_cast<size_t>(registry_.numLinear()),
                "scheme size mismatch");
    for (int i = 0; i < registry_.numLinear(); ++i)
        linear(i).setScheme(scheme.layers[static_cast<size_t>(i)]);
}

PrecisionScheme
LlamaModel::currentScheme() const
{
    auto *self = const_cast<LlamaModel *>(this);
    PrecisionScheme s(static_cast<size_t>(registry_.numLinear()));
    for (int i = 0; i < registry_.numLinear(); ++i)
        s.layers[static_cast<size_t>(i)] = self->linear(i).scheme();
    return s;
}

void
LlamaModel::setTap(LinearTap *tap)
{
    for (int i = 0; i < registry_.numLinear(); ++i)
        linear(i).setTap(tap, i);
}

} // namespace snip
