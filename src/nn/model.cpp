#include "nn/model.h"

#include <cstring>

#include "runtime/workspace_arena.h"

namespace snip {

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
                    int64_t seq)
{
    return forwardHead(forwardBlocks(tokens, batch, seq));
}

Tensor
LlamaModel::forwardBlocks(const std::vector<int32_t> &tokens, int64_t batch,
                          int64_t seq)
{
    SNIP_ASSERT(static_cast<int64_t>(tokens.size()) == batch * seq,
                "token count != batch*seq");
    SNIP_ASSERT(seq <= config_.max_seq, "sequence too long");

    ++forward_count_;
    Tensor x = embedding_->forward(tokens);
    for (auto &blk : blocks_)
        x = blk->forward(x, batch, seq);
    return x;
}

Tensor
LlamaModel::forwardHead(Tensor hidden)
{
    Tensor xn = final_norm_->forward(hidden);
    return lm_head_->forward(xn);
}

void
LlamaModel::inferStep(const int32_t *tokens, int64_t rows,
                      const KvCacheHandle &kv, float *logits)
{
    SNIP_ASSERT(kv.valid() && (kv.count == rows || kv.count == 1),
                "an inference step takes one sequence's prompt or one "
                "token per sequence");
    const int64_t d = config_.d_model;
    runtime::WorkspaceArena &arena =
        runtime::WorkspaceArena::forCurrentThread();
    runtime::ArenaScope scope(arena);
    float *x = arena.getFloats(static_cast<size_t>(rows * d));
    float *xn = arena.getFloats(static_cast<size_t>(kv.count * d));

    const float *table = embedding_->table().data();
    for (int64_t i = 0; i < rows; ++i) {
        const int32_t t = tokens[i];
        SNIP_ASSERT(t >= 0 && t < config_.vocab_size,
                    "token id out of range");
        std::memcpy(x + i * d, table + static_cast<int64_t>(t) * d,
                    static_cast<size_t>(d) * sizeof(float));
    }

    for (auto &blk : blocks_)
        blk->forwardInference(x, rows, kv);

    // Each sequence's last row is one of the step's final kv.count
    // rows: the prompt's last row, or every row of a decode step.
    const float *last = x + (rows - kv.count) * d;
    final_norm_->forwardInference(last, kv.count, xn);
    lm_head_->forwardInference(xn, kv.count, logits);
}

void
LlamaModel::backward(const Tensor &dlogits, bool retain)
{
    backwardBlocks(backwardHead(dlogits), retain);
}

Tensor
LlamaModel::backwardHead(const Tensor &dlogits)
{
    return final_norm_->backward(lm_head_->backward(dlogits));
}

void
LlamaModel::backwardBlocks(Tensor dhidden, bool retain)
{
    Tensor dx = std::move(dhidden);
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
        dx = (*it)->backward(dx, retain);
    embedding_->backward(dx);
}

LossResult
LlamaModel::forwardLoss(const std::vector<int32_t> &tokens,
                        const std::vector<int32_t> &targets, int64_t batch,
                        int64_t seq)
{
    Tensor logits = forward(tokens, batch, seq);
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
