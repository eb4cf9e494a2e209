/**
 * @file
 * Attention and whole-model tests: causality, GQA shapes, end-to-end
 * gradient checks through the full LlamaModel, and scheme application.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/model.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "train/presets.h"

namespace snip {
namespace {

ModelConfig
microModel()
{
    ModelConfig m = tinyTestModel();
    m.n_blocks = 2;
    m.d_model = 8;
    m.ffn_hidden = 12;
    m.vocab_size = 16;
    m.n_heads = 2;
    m.n_kv_heads = 2;
    m.max_seq = 8;
    m.init_std = 0.3f;
    return m;
}

std::vector<int32_t>
someTokens(int64_t n, int64_t vocab, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int32_t> t;
    for (int64_t i = 0; i < n; ++i)
        t.push_back(static_cast<int32_t>(
            rng.nextBelow(static_cast<uint64_t>(vocab))));
    return t;
}

TEST(Model, LogitsShape)
{
    LlamaModel model(microModel(), 1);
    auto tokens = someTokens(2 * 6, 16, 1);
    Tensor logits = model.forward(tokens, 2, 6);
    EXPECT_EQ(logits.size(0), 12);
    EXPECT_EQ(logits.size(1), 16);
    EXPECT_FALSE(hasNonFinite(logits));
}

TEST(Model, CausalityFutureTokensDoNotAffectPast)
{
    LlamaModel model(microModel(), 2);
    auto tokens = someTokens(8, 16, 3);
    Tensor l1 = model.forward(tokens, 1, 8);
    auto tokens2 = tokens;
    tokens2[7] = (tokens2[7] + 5) % 16; // change the LAST token
    Tensor l2 = model.forward(tokens2, 1, 8);
    // Rows 0..6 must be identical; row 7 must differ.
    for (int64_t r = 0; r < 7; ++r)
        for (int64_t v = 0; v < 16; ++v)
            EXPECT_EQ(l1.at(r, v), l2.at(r, v)) << "row " << r;
    double diff_last = 0;
    for (int64_t v = 0; v < 16; ++v)
        diff_last += std::fabs(l1.at(7, v) - l2.at(7, v));
    EXPECT_GT(diff_last, 1e-6);
}

TEST(Model, BatchRowsAreIndependent)
{
    LlamaModel model(microModel(), 4);
    auto a = someTokens(6, 16, 5);
    auto b = someTokens(6, 16, 6);
    std::vector<int32_t> both = a;
    both.insert(both.end(), b.begin(), b.end());
    Tensor l_both = model.forward(both, 2, 6);
    Tensor l_a = model.forward(a, 1, 6);
    for (int64_t r = 0; r < 6; ++r)
        for (int64_t v = 0; v < 16; ++v)
            EXPECT_NEAR(l_both.at(r, v), l_a.at(r, v), 1e-4);
}

TEST(Model, EndToEndGradientCheck)
{
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 7);
    auto tokens = someTokens(8, 16, 8);
    auto targets = someTokens(8, 16, 9);

    model.zeroGrad();
    LossResult res = model.forwardLoss(tokens, targets, 1, 8);
    model.backward(res.dlogits);

    auto loss_fn = [&] {
        return model.forwardLoss(tokens, targets, 1, 8).loss;
    };

    Rng pick(10);
    for (auto &p : model.params()) {
        SCOPED_TRACE(p.name);
        for (int s = 0; s < 3; ++s) {
            int64_t i = static_cast<int64_t>(pick.nextBelow(
                static_cast<uint64_t>(p.value->numel())));
            const float orig = p.value->at(i);
            const float h = 2e-3f * (std::fabs(orig) + 1.0f);
            p.value->at(i) = orig + h;
            double up = loss_fn();
            p.value->at(i) = orig - h;
            double down = loss_fn();
            p.value->at(i) = orig;
            const double num = (up - down) / (2.0 * h);
            const double ana = p.grad->at(i);
            EXPECT_NEAR(num, ana,
                        3e-2 * (std::fabs(num) + std::fabs(ana)) + 1e-3)
                << p.name << "[" << i << "]";
        }
    }
}

TEST(Model, GqaGradientCheck)
{
    ModelConfig cfg = microModel();
    cfg.n_heads = 4;
    cfg.n_kv_heads = 2; // grouped-query attention
    LlamaModel model(cfg, 11);
    auto tokens = someTokens(8, 16, 12);
    auto targets = someTokens(8, 16, 13);

    model.zeroGrad();
    LossResult res = model.forwardLoss(tokens, targets, 1, 8);
    model.backward(res.dlogits);

    auto loss_fn = [&] {
        return model.forwardLoss(tokens, targets, 1, 8).loss;
    };
    // Check K and V weights specifically (the GQA-affected path).
    Rng pick(14);
    for (int idx : {1, 2}) { // K, V of block 0
        Linear &lin = model.linear(idx);
        for (int s = 0; s < 4; ++s) {
            int64_t i = static_cast<int64_t>(pick.nextBelow(
                static_cast<uint64_t>(lin.weight().numel())));
            const float orig = lin.weight().at(i);
            const float h = 2e-3f;
            lin.weight().at(i) = orig + h;
            double up = loss_fn();
            lin.weight().at(i) = orig - h;
            double down = loss_fn();
            lin.weight().at(i) = orig;
            const double num = (up - down) / (2.0 * h);
            const double ana = lin.grad().at(i);
            EXPECT_NEAR(num, ana,
                        3e-2 * (std::fabs(num) + std::fabs(ana)) + 1e-3);
        }
    }
}

TEST(Model, SchemeAppliesToEveryLinear)
{
    LlamaModel model(microModel(), 15);
    const size_t n = static_cast<size_t>(model.registry().numLinear());
    PrecisionScheme scheme = PrecisionScheme::uniform(n, Precision::FP8);
    scheme.layers[3] = LayerScheme::uniform(Precision::FP4);
    model.setScheme(scheme);
    EXPECT_TRUE(model.currentScheme() == scheme);
    EXPECT_EQ(model.linear(3).scheme().of(GemmKind::Fwd),
              Precision::FP4);
    EXPECT_EQ(model.linear(0).scheme().of(GemmKind::Fwd),
              Precision::FP8);
}

TEST(Model, QuantizedSchemeChangesLossDeterministically)
{
    LlamaModel model(microModel(), 16);
    auto tokens = someTokens(8, 16, 17);
    auto targets = someTokens(8, 16, 18);
    const size_t n = static_cast<size_t>(model.registry().numLinear());

    double bf16 = model.forwardLoss(tokens, targets, 1, 8).loss;
    model.setScheme(PrecisionScheme::uniform(n, Precision::FP4));
    double fp4_a = model.forwardLoss(tokens, targets, 1, 8).loss;
    EXPECT_NE(bf16, fp4_a);
    // FP4 forward uses nearest rounding for X/W: deterministic.
    double fp4_b = model.forwardLoss(tokens, targets, 1, 8).loss;
    EXPECT_EQ(fp4_a, fp4_b);
}

TEST(Model, ParameterCountMatchesConfigFormula)
{
    ModelConfig cfg = microModel();
    LlamaModel model(cfg, 25);
    int64_t total = 0;
    for (auto &p : model.params())
        total += p.value->numel();
    EXPECT_EQ(total, cfg.parameterCount());
}

TEST(Attention, GqaBitIdenticalAcrossThreads)
{
    // The batched schedule fans whole (b,h) items over the pool and
    // reduces GQA dK/dV per kv head in a fixed order, so the thread
    // count must never change the logits, the loss or any projection
    // gradient — the K/V gradients carry the per-kv-head reduction.
    GlobalPoolGuard pool_guard;
    ModelConfig cfg = microModel();
    cfg.n_heads = 4;
    cfg.n_kv_heads = 2;
    cfg.d_model = 16;
    auto tokens = someTokens(2 * 8, 16, 41);
    auto targets = someTokens(2 * 8, 16, 42);
    const LayerRole roles[] = {LayerRole::Q, LayerRole::K, LayerRole::V,
                               LayerRole::O};

    struct Result
    {
        Tensor logits;
        double loss = 0.0;
        std::vector<Tensor> grads;
    };
    auto run = [&](int threads) {
        runtime::setGlobalThreadCount(threads);
        LlamaModel m(cfg, 43);
        Result r;
        r.logits = m.forward(tokens, 2, 8);
        m.zeroGrad();
        LossResult res = m.forwardLoss(tokens, targets, 2, 8);
        m.backward(res.dlogits);
        r.loss = res.loss;
        for (int b = 0; b < cfg.n_blocks; ++b)
            for (LayerRole role : roles)
                r.grads.push_back(
                    m.linear(m.registry().index(b, role)).grad());
        return r;
    };

    const Result ref = run(1);
    for (int threads : {2, 8}) {
        SCOPED_TRACE(threads);
        const Result got = run(threads);
        EXPECT_TRUE(got.logits == ref.logits);
        EXPECT_EQ(got.loss, ref.loss);
        for (size_t i = 0; i < ref.grads.size(); ++i)
            EXPECT_TRUE(got.grads[i] == ref.grads[i]) << "linear " << i;
    }
}

TEST(Attention, SavedStateReleasedAfterBackward)
{
    ModelConfig cfg = microModel();
    Rng rng(28);
    Rope rope(cfg.max_seq, cfg.headDim(), cfg.rope_theta);
    Attention attn(cfg, 0, rng, nullptr, &rope);
    Tensor x = Tensor::randn({8, cfg.d_model}, rng);

    EXPECT_EQ(attn.savedStateBytes(), 0);
    Tensor y1 = attn.forward(x, 1, 8);
    EXPECT_GT(attn.savedStateBytes(), 0);
    Tensor dy = Tensor::randn({8, cfg.d_model}, rng);
    attn.backward(dy);
    // backward() released q/k/v, probabilities and context.
    EXPECT_EQ(attn.savedStateBytes(), 0);

    // Forward-after-backward starts a fresh episode with identical
    // results, and a second backward works against the new state.
    Tensor y2 = attn.forward(x, 1, 8);
    EXPECT_TRUE(y1 == y2);
    EXPECT_GT(attn.savedStateBytes(), 0);
    attn.backward(dy);
    EXPECT_EQ(attn.savedStateBytes(), 0);
}

TEST(Attention, RetainingBackwardKeepsStateForASecondBackward)
{
    ModelConfig cfg = microModel();
    Rng rng(30);
    Rope rope(cfg.max_seq, cfg.headDim(), cfg.rope_theta);
    Attention attn(cfg, 0, rng, nullptr, &rope);
    Tensor x = Tensor::randn({8, cfg.d_model}, rng);
    Tensor dy = Tensor::randn({8, cfg.d_model}, rng);

    attn.forward(x, 1, 8);
    const int64_t saved = attn.savedStateBytes();
    ASSERT_GT(saved, 0);
    auto backprop = [&](bool retain) {
        for (auto &p : attn.params())
            p.grad->zero();
        Tensor dx = attn.backward(dy, retain);
        std::vector<Tensor> out{dx};
        for (auto &p : attn.params())
            out.push_back(*p.grad);
        return out;
    };
    const std::vector<Tensor> first = backprop(/*retain=*/true);
    EXPECT_EQ(attn.savedStateBytes(), saved);

    // A second backward from the kept state returns the same dX and
    // weight gradients; without retain it then releases the state.
    const std::vector<Tensor> second = backprop(/*retain=*/false);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_TRUE(first[i] == second[i]) << "tensor " << i;
    EXPECT_EQ(attn.savedStateBytes(), 0);
}

TEST(AttentionDeath, GqaShapeValidation)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ModelConfig cfg = microModel();
    Rng rng(29);
    Rope rope(cfg.max_seq, 4);

    // n_heads not a multiple of n_kv_heads: the truncating group
    // mapping would scatter query heads onto the wrong kv head.
    ModelConfig bad_kv = cfg;
    bad_kv.n_heads = 4;
    bad_kv.n_kv_heads = 3;
    bad_kv.d_model = 16;
    EXPECT_DEATH(Attention(bad_kv, 0, rng, nullptr, &rope),
                 "not divisible by n_kv_heads");

    // d_model not a multiple of n_heads: headDim() truncates.
    ModelConfig bad_dm = cfg;
    bad_dm.d_model = 10;
    bad_dm.n_heads = 4;
    bad_dm.n_kv_heads = 4;
    EXPECT_DEATH(Attention(bad_dm, 0, rng, nullptr, &rope),
                 "not divisible by n_heads");

    // Zero head counts die in validate() before any division.
    ModelConfig zero_heads = cfg;
    zero_heads.n_heads = 0;
    zero_heads.n_kv_heads = 0;
    EXPECT_EXIT(zero_heads.validate(),
                ::testing::ExitedWithCode(1), "must be positive");
    EXPECT_DEATH(Attention(zero_heads, 0, rng, nullptr, &rope),
                 "positive head counts");
}

TEST(Rope, HoistedFrequencyTableMatchesPerEntryConstruction)
{
    // The constructor hoists the per-pair pow() out of the position
    // loop; the table must stay bit-identical to the original
    // per-(pos, pair) construction. Compare through apply() on a
    // basis-like input so every cos/sin entry is exercised.
    const int64_t max_seq = 24, hd = 8;
    const double theta = 10000.0;
    Rope rope(max_seq, hd, theta);

    const int64_t pairs = hd / 2;
    Rng rng(30);
    Tensor x = Tensor::randn({max_seq, hd}, rng);
    Tensor rotated = x;
    rope.apply(rotated, 1, max_seq, 1);

    for (int64_t pos = 0; pos < max_seq; ++pos) {
        for (int64_t p = 0; p < pairs; ++p) {
            // The pre-hoist construction, verbatim.
            const double freq = std::pow(
                theta,
                -2.0 * static_cast<double>(p) / static_cast<double>(hd));
            const double angle = static_cast<double>(pos) * freq;
            const float c = static_cast<float>(std::cos(angle));
            const float s = static_cast<float>(std::sin(angle));
            const float a = x.at(pos, p);
            const float b = x.at(pos, p + pairs);
            EXPECT_EQ(rotated.at(pos, p), a * c - b * s)
                << "pos=" << pos << " p=" << p;
            EXPECT_EQ(rotated.at(pos, p + pairs), a * s + b * c)
                << "pos=" << pos << " p=" << p;
        }
    }
}

TEST(Registry, IndexingAndNames)
{
    LayerRegistry reg(tinyTestModel());
    EXPECT_EQ(reg.numLinear(), 4 * kRolesPerBlock);
    EXPECT_EQ(reg.index(1, LayerRole::Down), 13);
    EXPECT_EQ(reg.blockOf(13), 1);
    EXPECT_EQ(reg.roleOf(13), LayerRole::Down);
    EXPECT_EQ(reg.layerName(13), "blk01.Down");
    // Shapes: Down is [d_model, ffn_hidden].
    EXPECT_EQ(reg.outFeatures(13), tinyTestModel().d_model);
    EXPECT_EQ(reg.inFeatures(13), tinyTestModel().ffn_hidden);
    // FLOPs: 3 GEMMs x 2 x out x in.
    EXPECT_DOUBLE_EQ(reg.flopsPerToken(13),
                     6.0 * tinyTestModel().d_model *
                         tinyTestModel().ffn_hidden);
}

TEST(Registry, LinearAccessorMatchesRegistryShapes)
{
    LlamaModel model(microModel(), 26);
    const LayerRegistry &reg = model.registry();
    for (int i = 0; i < reg.numLinear(); ++i) {
        EXPECT_EQ(model.linear(i).outFeatures(), reg.outFeatures(i))
            << reg.layerName(i);
        EXPECT_EQ(model.linear(i).inFeatures(), reg.inFeatures(i));
    }
}

} // namespace
} // namespace snip
