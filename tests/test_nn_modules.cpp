/**
 * @file
 * Gradient checks and behaviour tests for the basic NN modules:
 * Linear (with quantization hooks), RMSNorm, Embedding, RoPE, SwiGLU,
 * and the grouped GEMMs of Attention and SwiGLU against a one layer at
 * a time reference.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/rmsnorm.h"
#include "nn/rope.h"
#include "nn/swiglu.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "train/presets.h"
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

// ------------------------------------------- grouped GEMMs, bit for bit

/** One linear layer as the one-at-a-time reference runs it: the
 *  module's weight and scheme, its own saved input and gradient. */
struct RefLinear
{
    const Tensor *w = nullptr;
    LayerScheme scheme;
    Tensor x;
    Tensor grad;

    explicit RefLinear(const Linear &l)
        : w(&l.weight()), scheme(l.scheme()),
          grad(l.outFeatures(), l.inFeatures())
    {
    }
};

/** The quantization of one operand, drawing a stochastic call key from
 *  @p fq as Linear draws it; null for a BF16 GEMM. */
const QuantConfig *
refPlan(FakeQuantizer &fq, QuantConfig &slot, Precision p, TensorRole role,
        const Tensor &operand)
{
    if (p == Precision::BF16)
        return nullptr;
    slot = rolePolicy(p, role);
    if (slot.rounding == Rounding::Stochastic && operand.numel() > 0)
        slot.call_key = fq.nextCallKey();
    return &slot;
}

Tensor
refForward(FakeQuantizer &fq, RefLinear &l, const Tensor &x)
{
    l.x = x;
    const Precision p = l.scheme.of(GemmKind::Fwd);
    QuantConfig xs, ws;
    const QuantConfig *xq = refPlan(fq, xs, p, TensorRole::Activation, x);
    const QuantConfig *wq = refPlan(fq, ws, p, TensorRole::Weight, *l.w);
    return quantMatmulNT(x, xq, *l.w, wq, nullptr);
}

Tensor
refBackward(FakeQuantizer &fq, RefLinear &l, const Tensor &dy)
{
    const Precision pd = l.scheme.of(GemmKind::Dgrad);
    QuantConfig ds, ws;
    const QuantConfig *dq = refPlan(fq, ds, pd, TensorRole::OutputGrad, dy);
    const QuantConfig *wq = refPlan(fq, ws, pd, TensorRole::Weight, *l.w);
    Tensor dx = quantMatmulNN(dy, dq, *l.w, wq, nullptr);
    const Precision pw = l.scheme.of(GemmKind::Wgrad);
    QuantConfig gs, xs;
    const QuantConfig *gq = refPlan(fq, gs, pw, TensorRole::OutputGrad, dy);
    const QuantConfig *xq = refPlan(fq, xs, pw, TensorRole::Activation, l.x);
    quantGemmTN(dy, gq, l.x, xq, l.grad, /*accumulate=*/true);
    return dx;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.numel())) ==
               0;
}

/** Records the order and the thread of every tap call. */
struct OrderTap : LinearTap
{
    std::vector<int> fwd, bwd;
    std::thread::id caller = std::this_thread::get_id();
    bool off_thread = false;

    void
    onForward(int idx, const Tensor &) override
    {
        fwd.push_back(idx);
        off_thread |= std::this_thread::get_id() != caller;
    }
    void
    onBackward(int idx, const Tensor &, const Tensor &) override
    {
        bwd.push_back(idx);
        off_thread |= std::this_thread::get_id() != caller;
    }
};

/** Per-layer schemes (fwd/dgrad/wgrad): FP8, FP4 and BF16 forwards,
 *  FP4 stochastic-rounded gradients in every layer. */
const LayerScheme kMixed[] = {
    {{Precision::FP8, Precision::FP4, Precision::FP4}},
    {{Precision::FP4, Precision::FP4, Precision::FP8}},
    {{Precision::FP8, Precision::FP8, Precision::FP4}},
    {{Precision::BF16, Precision::FP4, Precision::FP4}},
};

TEST(LinearGroup, GroupedGemmsEqualOneLayerAtATimeBitForBit)
{
    GlobalPoolGuard pool_guard;
    const ModelConfig cfg = tinyTestModel();
    // 96 rows: two 64-row M-blocks, so a lone forward (O, Down) still
    // fans its M-blocks out.
    const int64_t batch = 3, seq = 32, rows = batch * seq;
    const Rope rope(cfg.max_seq, cfg.headDim());
    const AttnShape shape{batch, seq, cfg.n_heads, cfg.n_kv_heads,
                          cfg.headDim()};
    Rng data_rng(71);
    const Tensor x = Tensor::randn({rows, cfg.d_model}, data_rng);
    const Tensor dy = Tensor::randn({rows, cfg.d_model}, data_rng);
    constexpr uint64_t kQuantSeed = 0x5EED;
    const LayerRole attn_roles[] = {LayerRole::Q, LayerRole::K, LayerRole::V,
                                    LayerRole::O};
    const LayerRole mlp_roles[] = {LayerRole::Gate, LayerRole::Up,
                                   LayerRole::Down};

    for (int threads : {1, 2, 4, 8}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        runtime::setGlobalThreadCount(threads);

        // Attention: Q/K/V grouped forward and backward, O alone.
        {
            FakeQuantizer fq(kQuantSeed);
            Rng init(72);
            Attention attn(cfg, 0, init, &fq, &rope);
            OrderTap tap;
            for (int r = 0; r < 4; ++r) {
                attn.linear(attn_roles[r]).setScheme(kMixed[r]);
                attn.linear(attn_roles[r]).setTap(&tap, r);
            }
            const Tensor y = attn.forward(x, batch, seq);
            const Tensor dx = attn.backward(dy);

            FakeQuantizer ref_fq(kQuantSeed);
            std::vector<RefLinear> ref;
            for (LayerRole role : attn_roles)
                ref.emplace_back(attn.linear(role));
            Tensor q = refForward(ref_fq, ref[0], x);
            Tensor k = refForward(ref_fq, ref[1], x);
            Tensor v = refForward(ref_fq, ref[2], x);
            rope.apply(q, batch, seq, cfg.n_heads);
            rope.apply(k, batch, seq, cfg.n_kv_heads);
            Tensor probs(batch * cfg.n_heads * seq, seq);
            Tensor ctx(rows, cfg.n_heads * cfg.headDim());
            attentionForwardCore(shape, q.data(), k.data(), v.data(),
                                 probs.data(), ctx.data());
            const Tensor ref_y = refForward(ref_fq, ref[3], ctx);
            const Tensor dctx = refBackward(ref_fq, ref[3], dy);
            Tensor dq(q.shape()), dk(k.shape()), dv(v.shape());
            attentionBackwardCore(shape, q.data(), k.data(), v.data(),
                                  probs.data(), dctx.data(), dq.data(),
                                  dk.data(), dv.data());
            rope.apply(dq, batch, seq, cfg.n_heads, /*inverse=*/true);
            rope.apply(dk, batch, seq, cfg.n_kv_heads, /*inverse=*/true);
            Tensor ref_dx = refBackward(ref_fq, ref[0], dq);
            const Tensor dxk = refBackward(ref_fq, ref[1], dk);
            const Tensor dxv = refBackward(ref_fq, ref[2], dv);
            for (int64_t i = 0; i < ref_dx.numel(); ++i)
                ref_dx.data()[i] += dxk.data()[i] + dxv.data()[i];

            EXPECT_TRUE(sameBits(y, ref_y));
            EXPECT_TRUE(sameBits(dx, ref_dx));
            for (int r = 0; r < 4; ++r)
                EXPECT_TRUE(sameBits(attn.linear(attn_roles[r]).grad(),
                                     ref[static_cast<size_t>(r)].grad))
                    << "layer " << r;
            EXPECT_EQ(fq.rng().state(), ref_fq.rng().state());
            EXPECT_EQ(tap.fwd, (std::vector<int>{0, 1, 2, 3}));
            EXPECT_EQ(tap.bwd, (std::vector<int>{3, 0, 1, 2}));
            EXPECT_FALSE(tap.off_thread);
        }

        // SwiGLU: Gate/Up grouped forward and backward, Down alone.
        {
            FakeQuantizer fq(kQuantSeed);
            Rng init(73);
            SwiGluMlp mlp(cfg, 0, init, &fq);
            for (int r = 0; r < 3; ++r)
                mlp.linear(mlp_roles[r]).setScheme(kMixed[r + 1]);
            const Tensor y = mlp.forward(x);
            const Tensor dx = mlp.backward(dy);

            FakeQuantizer ref_fq(kQuantSeed);
            std::vector<RefLinear> ref;
            for (LayerRole role : mlp_roles)
                ref.emplace_back(mlp.linear(role));
            const Tensor g = refForward(ref_fq, ref[0], x);
            const Tensor u = refForward(ref_fq, ref[1], x);
            Tensor sg(g.shape()), h(g.shape());
            for (int64_t i = 0; i < g.numel(); ++i) {
                const float gi = g.data()[i];
                const float sig = 1.0f / (1.0f + std::exp(-gi));
                sg.data()[i] = gi * sig;
                h.data()[i] = sg.data()[i] * u.data()[i];
            }
            const Tensor ref_y = refForward(ref_fq, ref[2], h);
            const Tensor dh = refBackward(ref_fq, ref[2], dy);
            Tensor dg(g.shape()), du(g.shape());
            for (int64_t i = 0; i < g.numel(); ++i) {
                const float gi = g.data()[i];
                du.data()[i] = dh.data()[i] * sg.data()[i];
                const float sig = 1.0f / (1.0f + std::exp(-gi));
                const float dsilu = sig * (1.0f + gi * (1.0f - sig));
                dg.data()[i] = dh.data()[i] * u.data()[i] * dsilu;
            }
            Tensor ref_dx = refBackward(ref_fq, ref[0], dg);
            const Tensor dxu = refBackward(ref_fq, ref[1], du);
            for (int64_t i = 0; i < ref_dx.numel(); ++i)
                ref_dx.data()[i] += dxu.data()[i];

            EXPECT_TRUE(sameBits(y, ref_y));
            EXPECT_TRUE(sameBits(dx, ref_dx));
            for (int r = 0; r < 3; ++r)
                EXPECT_TRUE(sameBits(mlp.linear(mlp_roles[r]).grad(),
                                     ref[static_cast<size_t>(r)].grad))
                    << "layer " << r;
            EXPECT_EQ(fq.rng().state(), ref_fq.rng().state());
        }
    }
}

} // namespace
} // namespace snip
