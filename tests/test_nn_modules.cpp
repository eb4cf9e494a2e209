/**
 * @file
 * Gradient checks and behaviour tests for the basic NN modules:
 * Linear (with quantization hooks), RMSNorm, Embedding, RoPE, SwiGLU.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/rmsnorm.h"
#include "nn/rope.h"
#include "nn/swiglu.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace snip {
namespace {

/** Scalar loss used by gradient checks: sum of c_i * y_i. */
double
weightedSum(const Tensor &y, const Tensor &coeff)
{
    double acc = 0.0;
    for (int64_t i = 0; i < y.numel(); ++i)
        acc += static_cast<double>(y.at(i)) * coeff.at(i);
    return acc;
}

/**
 * Central-difference check of dLoss/dParam against the analytic grad.
 * @p forward_loss recomputes the loss from scratch.
 */
void
checkGrad(Tensor &param, const Tensor &analytic,
          const std::function<double()> &forward_loss, int samples,
          Rng &rng, double tol = 2e-2)
{
    for (int s = 0; s < samples; ++s) {
        int64_t i = static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(param.numel())));
        const float orig = param.at(i);
        const float h = 1e-3f * (std::fabs(orig) + 1.0f);
        param.at(i) = orig + h;
        double up = forward_loss();
        param.at(i) = orig - h;
        double down = forward_loss();
        param.at(i) = orig;
        const double num = (up - down) / (2.0 * h);
        const double ana = analytic.at(i);
        EXPECT_NEAR(num, ana, tol * (std::fabs(num) + std::fabs(ana) +
                                     1e-3))
            << "param element " << i;
    }
}

TEST(Linear, ForwardMatchesManualGemm)
{
    Rng rng(1);
    Linear lin("l", 3, 4, rng, 0.5f);
    Tensor x = Tensor::randn({2, 4}, rng);
    Tensor y = lin.forward(x);
    for (int64_t i = 0; i < 2; ++i)
        for (int64_t j = 0; j < 3; ++j) {
            double acc = 0;
            for (int64_t k = 0; k < 4; ++k)
                acc += static_cast<double>(x.at(i, k)) *
                       lin.weight().at(j, k);
            EXPECT_NEAR(y.at(i, j), acc, 1e-5);
        }
}

TEST(Linear, BackwardGradientsCorrect)
{
    Rng rng(2);
    Linear lin("l", 5, 4, rng, 0.5f);
    Tensor x = Tensor::randn({3, 4}, rng);
    Tensor coeff = Tensor::randn({3, 5}, rng);

    Tensor y = lin.forward(x);
    lin.zeroGrad();
    Tensor dx = lin.backward(coeff); // dLoss/dY = coeff for weightedSum

    auto loss_w = [&] { return weightedSum(lin.forward(x), coeff); };
    checkGrad(lin.weight(), lin.grad(), loss_w, 10, rng);

    // Input gradient: perturb x.
    for (int s = 0; s < 8; ++s) {
        int64_t i = static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(x.numel())));
        const float orig = x.at(i);
        const float h = 1e-3f;
        x.at(i) = orig + h;
        double up = weightedSum(lin.forward(x), coeff);
        x.at(i) = orig - h;
        double down = weightedSum(lin.forward(x), coeff);
        x.at(i) = orig;
        EXPECT_NEAR((up - down) / (2 * h), dx.at(i), 2e-2);
    }
}

TEST(Linear, GradAccumulatesAcrossBackwardCalls)
{
    Rng rng(3);
    Linear lin("l", 2, 2, rng, 0.5f);
    Tensor x = Tensor::randn({2, 2}, rng);
    Tensor dy = Tensor::randn({2, 2}, rng);
    lin.forward(x);
    lin.backward(dy);
    Tensor g1 = lin.grad();
    lin.forward(x);
    lin.backward(dy);
    for (int64_t i = 0; i < g1.numel(); ++i)
        EXPECT_NEAR(lin.grad().at(i), 2 * g1.at(i), 1e-5);
}

TEST(Linear, TapSeesTensors)
{
    struct Tap : LinearTap
    {
        int fwd = 0, bwd = 0;
        int64_t m = 0;
        void
        onForward(int idx, const Tensor &y) override
        {
            ++fwd;
            EXPECT_EQ(idx, 42);
            m = y.size(0);
            EXPECT_EQ(y.size(1), 3);
        }
        void
        onBackward(int idx, const Tensor &dy, const Tensor &dx) override
        {
            ++bwd;
            EXPECT_EQ(idx, 42);
            EXPECT_EQ(dy.size(0), m);
            EXPECT_EQ(dy.size(1), 3);
            EXPECT_EQ(dx.size(0), m);
            EXPECT_EQ(dx.size(1), 2);
        }
    } tap;
    Rng rng(4);
    Linear lin("l", 3, 2, rng, 0.5f);
    lin.setTap(&tap, 42);
    Tensor x = Tensor::randn({5, 2}, rng);
    Tensor y = lin.forward(x);
    lin.backward(y);
    EXPECT_EQ(tap.fwd, 1);
    EXPECT_EQ(tap.bwd, 1);
    EXPECT_EQ(tap.m, 5);
}

TEST(Linear, QuantizedForwardDiffersFromExact)
{
    Rng rng(5);
    FakeQuantizer fq(6);
    Linear lin("l", 16, 16, rng, 0.5f, &fq);
    Tensor x = Tensor::randn({8, 16}, rng);
    Tensor y_exact = lin.forward(x); // default scheme = BF16 identity
    lin.setScheme(LayerScheme::uniform(Precision::FP4));
    Tensor y_q = lin.forward(x);
    EXPECT_GT(diffNorm(y_exact, y_q), 0.0);
    // FP8 should be closer to exact than FP4.
    lin.setScheme(LayerScheme::uniform(Precision::FP8));
    Tensor y_q8 = lin.forward(x);
    EXPECT_LT(diffNorm(y_exact, y_q8), diffNorm(y_exact, y_q));
}

TEST(RMSNorm, ForwardNormalizesRows)
{
    Rng rng(7);
    RMSNorm norm("n", 8);
    Tensor x = Tensor::randn({4, 8}, rng, 3.0f);
    Tensor y = norm.forward(x);
    // With unit gain, each row's mean square should be ~1.
    for (int64_t r = 0; r < 4; ++r) {
        double ss = 0;
        for (int64_t c = 0; c < 8; ++c)
            ss += static_cast<double>(y.at(r, c)) * y.at(r, c);
        EXPECT_NEAR(ss / 8.0, 1.0, 1e-3);
    }
}

TEST(RMSNorm, GainScalesOutput)
{
    RMSNorm norm("n", 4);
    norm.gain().fill(2.0f);
    Tensor x = Tensor::full({1, 4}, 3.0f);
    Tensor y = norm.forward(x);
    for (int64_t c = 0; c < 4; ++c)
        EXPECT_NEAR(y.at(0, c), 2.0f, 1e-4);
}

TEST(RMSNorm, BackwardGradientsCorrect)
{
    Rng rng(8);
    RMSNorm norm("n", 6);
    for (int64_t i = 0; i < 6; ++i)
        norm.gain().at(i) = 1.0f + 0.1f * static_cast<float>(i);
    Tensor x = Tensor::randn({3, 6}, rng);
    Tensor coeff = Tensor::randn({3, 6}, rng);

    norm.forward(x);
    norm.zeroGrad();
    Tensor dx = norm.backward(coeff);

    auto loss = [&] { return weightedSum(norm.forward(x), coeff); };
    checkGrad(norm.gain(), norm.grad(), loss, 6, rng);

    for (int s = 0; s < 6; ++s) {
        int64_t i = static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(x.numel())));
        const float orig = x.at(i);
        const float h = 1e-3f;
        x.at(i) = orig + h;
        double up = loss();
        x.at(i) = orig - h;
        double down = loss();
        x.at(i) = orig;
        EXPECT_NEAR((up - down) / (2 * h), dx.at(i), 2e-2);
    }
}

TEST(Embedding, GatherAndScatter)
{
    Rng rng(9);
    Embedding emb("e", 10, 4, rng, 1.0f);
    std::vector<int32_t> tokens = {3, 7, 3};
    Tensor out = emb.forward(tokens);
    for (int64_t c = 0; c < 4; ++c) {
        EXPECT_EQ(out.at(0, c), emb.table().at(3, c));
        EXPECT_EQ(out.at(2, c), emb.table().at(3, c));
        EXPECT_EQ(out.at(1, c), emb.table().at(7, c));
    }
    Tensor d = Tensor::full({3, 4}, 1.0f);
    emb.zeroGrad();
    emb.backward(d);
    // Token 3 appears twice: grad 2; token 7 once: grad 1; rest 0.
    EXPECT_EQ(emb.grad().at(3, 0), 2.0f);
    EXPECT_EQ(emb.grad().at(7, 0), 1.0f);
    EXPECT_EQ(emb.grad().at(0, 0), 0.0f);
}

TEST(Rope, PreservesNorms)
{
    Rng rng(10);
    Rope rope(16, 8);
    Tensor x = Tensor::randn({2 * 16, 2 * 8}, rng);
    Tensor before = x;
    rope.apply(x, 2, 16, 2);
    // Rotations are orthogonal per (position, head): norms preserved.
    EXPECT_NEAR(frobeniusNorm(x), frobeniusNorm(before), 1e-4);
}

TEST(Rope, InverseUndoesRotation)
{
    Rng rng(11);
    Rope rope(8, 4);
    Tensor x = Tensor::randn({8, 8}, rng);
    Tensor orig = x;
    rope.apply(x, 1, 8, 2);
    rope.apply(x, 1, 8, 2, /*inverse=*/true);
    EXPECT_LT(diffNorm(x, orig), 1e-5);
}

TEST(Rope, PositionZeroIsIdentity)
{
    Rng rng(12);
    Rope rope(4, 6);
    Tensor x = Tensor::randn({4, 6}, rng);
    Tensor orig = x;
    rope.apply(x, 1, 4, 1);
    for (int64_t c = 0; c < 6; ++c)
        EXPECT_NEAR(x.at(0, c), orig.at(0, c), 1e-6);
    // Later positions are rotated.
    EXPECT_GT(diffNorm(x, orig), 1e-3);
}

TEST(SwiGlu, BackwardGradientsCorrect)
{
    Rng rng(13);
    ModelConfig cfg;
    cfg.d_model = 6;
    cfg.ffn_hidden = 10;
    cfg.vocab_size = 32;
    cfg.n_heads = 2;
    cfg.n_kv_heads = 2;
    cfg.init_std = 0.4f;
    SwiGluMlp mlp(cfg, 0, rng, nullptr);

    Tensor x = Tensor::randn({3, 6}, rng);
    Tensor coeff = Tensor::randn({3, 6}, rng);

    mlp.forward(x);
    for (auto &p : mlp.params())
        p.grad->zero();
    Tensor dx = mlp.backward(coeff);

    auto loss = [&] { return weightedSum(mlp.forward(x), coeff); };
    for (auto &p : mlp.params()) {
        SCOPED_TRACE(p.name);
        checkGrad(*p.value, *p.grad, loss, 5, rng);
    }
    for (int s = 0; s < 6; ++s) {
        int64_t i = static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(x.numel())));
        const float orig = x.at(i);
        const float h = 1e-3f;
        x.at(i) = orig + h;
        double up = loss();
        x.at(i) = orig - h;
        double down = loss();
        x.at(i) = orig;
        EXPECT_NEAR((up - down) / (2 * h), dx.at(i), 2e-2);
    }
}

} // namespace
} // namespace snip
