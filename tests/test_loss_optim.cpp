/**
 * @file
 * Cross-entropy loss, sequence log-prob scoring, AdamW semantics, and
 * the optimizer-sensitivity statistics SNIP's Sec. 4.3.2 analysis uses.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "alloc_counter.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "optim/adamw.h"
#include "optim/lr_schedule.h"
#include "simd/kernels.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "train/presets.h"
#include "util/rng.h"

namespace snip {
namespace {

TEST(Loss, UniformLogitsGiveLogVocab)
{
    Tensor logits(4, 8); // all zeros -> uniform
    std::vector<int32_t> targets = {0, 3, 5, 7};
    LossResult res = softmaxCrossEntropy(logits, targets);
    EXPECT_NEAR(res.loss, std::log(8.0), 1e-6);
    EXPECT_EQ(res.valid_count, 4);
}

TEST(Loss, PerfectPredictionNearZeroLoss)
{
    Tensor logits(2, 4);
    logits.at(0, 1) = 50.0f;
    logits.at(1, 2) = 50.0f;
    LossResult res = softmaxCrossEntropy(logits, {1, 2});
    EXPECT_LT(res.loss, 1e-6);
}

TEST(Loss, IgnoreIndexSkipsPositions)
{
    Tensor logits(3, 4);
    logits.at(0, 0) = 10.0f;
    LossResult res = softmaxCrossEntropy(logits, {0, -1, -1});
    EXPECT_EQ(res.valid_count, 1);
    EXPECT_LT(res.loss, 1e-3);
    // Ignored rows contribute zero gradient.
    for (int64_t v = 0; v < 4; ++v) {
        EXPECT_EQ(res.dlogits.at(1, v), 0.0f);
        EXPECT_EQ(res.dlogits.at(2, v), 0.0f);
    }
}

TEST(Loss, GradientMatchesFiniteDifference)
{
    Rng rng(1);
    Tensor logits = Tensor::randn({3, 5}, rng);
    std::vector<int32_t> targets = {1, 4, 0};
    LossResult res = softmaxCrossEntropy(logits, targets);
    for (int64_t i = 0; i < logits.numel(); ++i) {
        const float orig = logits.at(i);
        const float h = 1e-3f;
        logits.at(i) = orig + h;
        double up = softmaxCrossEntropy(logits, targets).loss;
        logits.at(i) = orig - h;
        double down = softmaxCrossEntropy(logits, targets).loss;
        logits.at(i) = orig;
        EXPECT_NEAR((up - down) / (2 * h), res.dlogits.at(i), 1e-3);
    }
}

TEST(Loss, GradientRowsSumToZero)
{
    // Softmax CE gradient per row sums to 0 (prob mass conservation).
    Rng rng(2);
    Tensor logits = Tensor::randn({4, 6}, rng);
    LossResult res = softmaxCrossEntropy(logits, {0, 1, 2, 3});
    for (int64_t r = 0; r < 4; ++r) {
        double s = 0;
        for (int64_t v = 0; v < 6; ++v)
            s += res.dlogits.at(r, v);
        EXPECT_NEAR(s, 0.0, 1e-6);
    }
}

TEST(Loss, SequenceLogProbMatchesManual)
{
    Rng rng(3);
    Tensor logits = Tensor::randn({4, 5}, rng);
    std::vector<int32_t> targets = {1, 2, 3, 0};
    double lp = sequenceLogProb(logits, targets, 1, 3);
    // Manual: rows 1 and 2.
    double manual = 0;
    for (int64_t r = 1; r < 3; ++r) {
        double maxv = -1e30, sum = 0;
        for (int64_t v = 0; v < 5; ++v)
            maxv = std::max(maxv, static_cast<double>(logits.at(r, v)));
        for (int64_t v = 0; v < 5; ++v)
            sum += std::exp(logits.at(r, v) - maxv);
        manual += logits.at(r, targets[static_cast<size_t>(r)]) -
                  (maxv + std::log(sum));
    }
    EXPECT_NEAR(lp, manual, 1e-6);
}

/** One-parameter quadratic helper for optimizer tests. */
struct Quad
{
    Tensor w = Tensor::full({2}, 1.0f);
    Tensor g = Tensor::zeros({2});

    ParamList
    params()
    {
        return {{"w", &w, &g}};
    }
    void
    fillGrad()
    {
        // loss = 0.5*||w||^2 -> grad = w.
        g.at(0) = w.at(0);
        g.at(1) = w.at(1);
    }
};

TEST(AdamW, DecreasesQuadraticLoss)
{
    Quad q;
    AdamWConfig cfg;
    cfg.lr = 0.05;
    cfg.weight_decay = 0.0;
    cfg.grad_clip = 0.0;
    AdamW opt(q.params(), cfg);
    double initial = sumSquares(q.w);
    for (int i = 0; i < 50; ++i) {
        q.fillGrad();
        opt.step();
    }
    EXPECT_LT(sumSquares(q.w), 0.1 * initial);
    EXPECT_EQ(opt.stepCount(), 50);
}

TEST(AdamW, FirstStepMovesByLr)
{
    // With bias correction, the first Adam step is ~lr * sign(g).
    Quad q;
    AdamWConfig cfg;
    cfg.lr = 0.01;
    cfg.weight_decay = 0.0;
    cfg.grad_clip = 0.0;
    AdamW opt(q.params(), cfg);
    q.fillGrad();
    opt.step();
    EXPECT_NEAR(q.w.at(0), 1.0f - 0.01f, 1e-4);
}

TEST(AdamW, DecoupledWeightDecayShrinksWithoutGradient)
{
    Quad q;
    AdamWConfig cfg;
    cfg.lr = 0.1;
    cfg.weight_decay = 0.5;
    cfg.grad_clip = 0.0;
    AdamW opt(q.params(), cfg);
    q.g.zero();
    opt.step();
    // w <- w * (1 - lr*wd) = 0.95 (zero gradient -> no Adam term).
    EXPECT_NEAR(q.w.at(0), 0.95f, 1e-5);
}

TEST(AdamW, GradClipLimitsUpdateScale)
{
    Quad a, b;
    AdamWConfig clip_cfg;
    clip_cfg.lr = 0.1;
    clip_cfg.weight_decay = 0.0;
    clip_cfg.grad_clip = 1e-3; // heavy clipping
    AdamW opt(a.params(), clip_cfg);
    a.g.fill(100.0f);
    b.g.fill(100.0f * static_cast<float>(1e-3 / (100.0 * M_SQRT2)));
    AdamWConfig noclip = clip_cfg;
    noclip.grad_clip = 0.0;
    AdamW optb(b.params(), noclip);
    opt.step();
    optb.step();
    // Clipping to norm 1e-3 equals feeding the pre-scaled gradient.
    EXPECT_NEAR(a.w.at(0), b.w.at(0), 1e-5);
}

TEST(AdamW, ParamIndexLookup)
{
    Quad q;
    AdamW opt(q.params(), {});
    EXPECT_EQ(opt.paramIndexOf(&q.w), 0);
    Tensor other(1, 1);
    EXPECT_EQ(opt.paramIndexOf(&other), -1);
}

TEST(AdamW, SnapshotRestoreRoundTrip)
{
    Quad q;
    AdamWConfig cfg;
    cfg.grad_clip = 0.0;
    AdamW opt(q.params(), cfg);
    for (int i = 0; i < 3; ++i) {
        q.fillGrad();
        opt.step();
    }
    auto snap = opt.snapshot();
    int64_t count = opt.stepCount();
    Tensor w_after3 = q.w;
    for (int i = 0; i < 3; ++i) {
        q.fillGrad();
        opt.step();
    }
    // Restore and replay: must reproduce the same trajectory.
    opt.restore(snap, count);
    q.w = w_after3;
    q.fillGrad();
    opt.step();
    Tensor w_replay = q.w;

    opt.restore(snap, count);
    q.w = w_after3;
    q.fillGrad();
    opt.step();
    EXPECT_TRUE(q.w == w_replay);
}

TEST(AdamW, UpdateSensitivityMatchesDirectPerturbation)
{
    // ||h(g+dg)-h(g)|| ~ scale * sens * ||dg|| (Sec. 4.3.2): verify the
    // analytic sensitivity against an actual perturbed update.
    Rng rng(4);
    const int64_t n = 64;
    Tensor w = Tensor::randn({n}, rng);
    Tensor g = Tensor::randn({n}, rng);
    Tensor grad_store = g;
    ParamList params = {{"w", &w, &grad_store}};
    AdamWConfig cfg;
    cfg.lr = 1e-3;
    cfg.weight_decay = 0.0;
    cfg.grad_clip = 0.0;
    AdamW opt(params, cfg);
    // A few steps to populate moments.
    for (int i = 0; i < 5; ++i) {
        grad_store = g;
        opt.step();
    }

    const double scale = opt.updateScaleFactor();
    const double sens = opt.updateSensitivityNorm(0);

    // Apply one more step with g vs g+dg from identical state.
    auto one_step = [&](const Tensor &grad) {
        Tensor w_copy = w;
        ParamList p = {{"w", &w_copy, const_cast<Tensor *>(&grad)}};
        AdamW o(p, cfg);
        o.restore(opt.snapshot(), opt.stepCount());
        o.step();
        return w_copy;
    };
    Tensor dg = Tensor::randn({n}, rng, 1e-4f);
    Tensor g2 = add(g, dg);
    Tensor w1 = one_step(g);
    Tensor w2 = one_step(g2);
    const double actual = diffNorm(w1, w2);
    const double predicted = scale * sens * frobeniusNorm(dg);
    EXPECT_GT(predicted, 0.0);
    EXPECT_NEAR(actual, predicted, 0.5 * std::max(actual, predicted));
}

TEST(AdamW, RestoreRejectsAMisshapedSecondMoment)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // step() sweeps v by the value's numel, so restore() must check v's
    // shape as it checks m's.
    Quad q;
    AdamW opt(q.params(), {});
    std::vector<AdamW::State> snap = opt.snapshot();
    snap[0].v = Tensor::zeros({1});
    EXPECT_DEATH(opt.restore(snap, 1), "v.sameShape");
}

TEST(AdamW, RejectsATensorListedTwice)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The serial update applied a twice-listed tensor's step twice;
    // the parallel sweep would race on it, so construction refuses.
    Quad a, b;
    const ParamList shared_value = {{"a", &a.w, &a.g}, {"b", &a.w, &b.g}};
    EXPECT_DEATH(AdamW(shared_value, {}), "names one tensor twice: a and b");
    const ParamList shared_grad = {{"a", &a.w, &a.g}, {"b", &b.w, &a.g}};
    EXPECT_DEATH(AdamW(shared_grad, {}), "names one tensor twice: a and b");
}

TEST(AdamW, StepMatchesTheSerialNormAndUpdateAtEveryWidth)
{
    // One step against the optimizer's serial definition: the grad norm
    // is the per-tensor sums of squares added in parameter order, and
    // the update is the kernel's loop at that clip factor. The first
    // gradient dwarfs the rest, each of which alone is below half an
    // ulp of the running sum, so the summation order shows in the norm.
    // m starts where b1*m cancels (1-b1)*g', so the new m is a rounding
    // residue and a clip factor one double ulp off changes a few
    // percent of its floats.
    GlobalPoolGuard pool_guard;
    AdamWConfig cfg;
    cfg.grad_clip = 0.5;
    Rng rng(8);
    std::vector<Tensor> w0, g, m0;
    for (int i = 0; i < 24; ++i) {
        const int64_t n = 257 + 97 * i;
        w0.push_back(Tensor::randn({n}, rng, 0.02f));
        g.push_back(Tensor::randn({n}, rng, i == 0 ? 1e4f : 2e-5f));
    }
    double total_sq = 0.0;
    for (const Tensor &t : g)
        total_sq += sumSquares(t);
    double reversed_sq = 0.0;
    for (auto it = g.rbegin(); it != g.rend(); ++it)
        reversed_sq += sumSquares(*it);
    ASSERT_NE(total_sq, reversed_sq);
    ASSERT_GT(std::sqrt(total_sq), cfg.grad_clip);
    simd::AdamwCoeffs c;
    c.clip_scale = cfg.grad_clip / std::sqrt(total_sq);
    c.decay = 1.0 - cfg.lr * cfg.weight_decay;
    c.b1 = cfg.beta1;
    c.one_minus_b1 = 1.0 - cfg.beta1;
    c.b2 = cfg.beta2;
    c.one_minus_b2 = 1.0 - cfg.beta2;
    c.bias1 = 1.0 - cfg.beta1;
    c.bias2 = 1.0 - cfg.beta2;
    c.lr = cfg.lr;
    c.eps = cfg.eps;
    for (const Tensor &t : g) {
        Tensor m(t.shape());
        for (int64_t j = 0; j < t.numel(); ++j)
            m.at(j) = static_cast<float>(
                -c.one_minus_b1 * (t.at(j) * c.clip_scale) / c.b1);
        m0.push_back(m);
    }
    std::vector<AdamW::State> ref;
    std::vector<Tensor> w_ref = w0;
    for (size_t i = 0; i < g.size(); ++i) {
        ref.push_back({m0[i], Tensor::zeros(g[i].shape())});
        simd::scalarKernels().adamwUpdate(
            w_ref[i].data(), g[i].data(), ref[i].m.data(), ref[i].v.data(),
            w_ref[i].numel(), c);
    }

    for (int threads : {1, 4}) {
        runtime::setGlobalThreadCount(threads);
        std::vector<Tensor> w = w0;
        ParamList params;
        std::vector<AdamW::State> start;
        for (size_t i = 0; i < g.size(); ++i) {
            params.push_back({"p" + std::to_string(i), &w[i], &g[i]});
            start.push_back({m0[i], Tensor::zeros(g[i].shape())});
        }
        AdamW opt(params, cfg);
        opt.restore(start, 0);
        opt.step();
        for (size_t i = 0; i < g.size(); ++i) {
            EXPECT_TRUE(w[i] == w_ref[i])
                << "w" << i << ", " << threads << " threads";
            EXPECT_TRUE(opt.state(i).m == ref[i].m)
                << "m" << i << ", " << threads << " threads";
            EXPECT_TRUE(opt.state(i).v == ref[i].v)
                << "v" << i << ", " << threads << " threads";
        }
    }
}

TEST(AdamW, WarmedStepAllocatesNothing)
{
    // The fig8 parameter list: both parallel sweeps (grad norm and
    // update) capture one pointer, so a warmed step never touches the
    // heap at any pool width.
    GlobalPoolGuard pool_guard;
    LlamaModel model(tinyllamaSim(), 5);
    ParamList params = model.params();
    Rng rng(6);
    for (ParamRef &p : params) {
        float *g = p.grad->data();
        for (int64_t j = 0; j < p.grad->numel(); ++j)
            g[j] = static_cast<float>(rng.nextGaussian() * 1e-2);
    }
    AdamWConfig cfg;
    cfg.grad_clip = 1e-3; // the clip path runs the grad-norm sweep
    AdamW opt(params, cfg);
    for (int threads : {1, 4}) {
        runtime::setGlobalThreadCount(threads);
        opt.step(); // warm the pool's workers
        opt.step();
        EXPECT_EQ(allocDelta([&opt] { opt.step(); }), 0)
            << threads << " threads";
    }
}

TEST(LrSchedule, ConstantIsConstant)
{
    LrSchedule s(LrScheduleKind::Constant, 0.1, 100);
    EXPECT_EQ(s.at(0), 0.1);
    EXPECT_EQ(s.at(99), 0.1);
}

TEST(LrSchedule, CosineDecaysToMin)
{
    LrSchedule s(LrScheduleKind::Cosine, 1.0, 100, 0, 0.1);
    EXPECT_NEAR(s.at(0), 1.0, 1e-9);
    EXPECT_NEAR(s.at(100), 0.1, 1e-9);
    EXPECT_GT(s.at(25), s.at(75));
}

TEST(LrSchedule, WarmupRampsLinearly)
{
    LrSchedule s(LrScheduleKind::WarmupCosine, 1.0, 100, 10);
    EXPECT_NEAR(s.at(0), 0.1, 1e-9);
    EXPECT_NEAR(s.at(4), 0.5, 1e-9);
    EXPECT_NEAR(s.at(9), 1.0, 1e-9);
    EXPECT_GT(s.at(10), s.at(50));
}

TEST(LrSchedule, KindParsing)
{
    EXPECT_EQ(LrSchedule::kindByName("constant"),
              LrScheduleKind::Constant);
    EXPECT_EQ(LrSchedule::kindByName("cosine"), LrScheduleKind::Cosine);
    EXPECT_EQ(LrSchedule::kindByName("warmup_cosine"),
              LrScheduleKind::WarmupCosine);
}

} // namespace
} // namespace snip
