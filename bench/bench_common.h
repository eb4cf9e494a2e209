/**
 * @file
 * Shared experiment harness for the table/figure reproduction benches.
 *
 * Implements the paper's methodology (Sec. 6.1): train a model to a
 * checkpoint in BF16 (cached on disk so the bench suite pays the cost
 * once), then resume pretraining from that identical checkpoint under
 * each precision-selection method on identical data, and score the
 * result with the synthetic lm-eval suite.
 */
#ifndef SNIP_BENCH_BENCH_COMMON_H
#define SNIP_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "eval/harness.h"
#include "schemes/baselines.h"
#include "train/checkpoint.h"
#include "train/presets.h"
#include "util/string_util.h"
#include "util/table.h"

namespace snip {
namespace bench {

/** A prepared experiment: trainer + checkpoint + eval suite. */
struct Setup
{
    TrainerConfig cfg;
    std::unique_ptr<Trainer> trainer;
    TrainerSnapshot checkpoint;
    std::vector<EvalTask> suite;
};

/**
 * Build a Setup: construct the preset trainer, warm it up for
 * @p warmup_steps in BF16 (loading/saving a disk cache named after the
 * model and step count), snapshot, and generate the eval suite.
 */
inline Setup
makeSetup(const ModelConfig &model, int64_t warmup_steps,
          int eval_items = 15, uint64_t seed = 42)
{
    Setup s;
    s.cfg = trainerPreset(model, seed);
    s.trainer = std::make_unique<Trainer>(s.cfg);

    const std::string cache = strformat("snip_ckpt_%s_%lld.bin",
                                        model.name.c_str(),
                                        static_cast<long long>(
                                            warmup_steps));
    if (loadCheckpoint(*s.trainer, cache)) {
        inform("loaded cached checkpoint ", cache);
    } else {
        inform("warming up ", model.name, " for ", warmup_steps,
               " BF16 steps (cached to ", cache, ")");
        s.trainer->train(warmup_steps);
        if (!saveCheckpoint(*s.trainer, cache))
            warn("could not cache checkpoint to ", cache);
    }
    s.checkpoint = s.trainer->snapshot();
    s.suite = makeEvalSuite(s.trainer->corpus(), eval_items, seed ^ 0x99);
    return s;
}

/** The selection methods compared throughout the evaluation. */
inline const std::vector<std::string> &
allMethods()
{
    static const std::vector<std::string> m = {
        "SNIP",    "min-abs-err", "min-rel-err", "random0",
        "random1", "random2",     "E-layer-id",  "E-layer-type"};
    return m;
}

/**
 * Produce the scheme a method selects at the trainer's current state
 * for efficiency target @p target. SNIP/min-abs-err/min-rel-err run the
 * full Fig. 6 pipeline (stats + probes + ILP) with their respective
 * quality metrics; the rest are the heuristic baselines of Sec. 6.1.
 * Leaves model gradients dirty but weights untouched.
 */
inline PrecisionScheme
makeMethodScheme(Trainer &trainer, const std::string &method,
                 double target, uint64_t seed = 7)
{
    LlamaModel &model = trainer.model();
    const size_t n = static_cast<size_t>(model.registry().numLinear());
    const auto flops = model.registry().allFlopsPerToken();

    if (method == "BF16")
        return PrecisionScheme::uniform(n, Precision::BF16);
    if (method == "FP8")
        return PrecisionScheme::uniform(n, Precision::FP8);
    if (method == "FP4")
        return PrecisionScheme::uniform(n, Precision::FP4);
    if (startsWith(method, "random")) {
        uint64_t idx = method.size() > 6
                           ? static_cast<uint64_t>(method[6] - '0')
                           : 0;
        Rng rng(seed * 1000003 + idx);
        return randomScheme(flops, target, rng);
    }
    if (method == "E-layer-id") {
        return layerIdScheme(flops, target,
                             static_cast<int>(model.config().n_blocks));
    }
    if (method == "E-layer-type") {
        return layerTypeScheme(flops, target,
                               static_cast<int>(model.config().n_blocks));
    }

    QualityMetric metric = QualityMetric::Snip;
    if (method == "min-abs-err")
        metric = QualityMetric::AbsError;
    else if (method == "min-rel-err")
        metric = QualityMetric::RelError;
    else if (method != "SNIP")
        fatal("unknown method: ", method);

    SnipController::Config cc;
    cc.target_fp4_fraction = target;
    cc.metric = metric;
    SnipController controller(cc);
    Batch stats_batch =
        BatchIterator(trainer.corpus(), trainer.config().batch_size,
                      seed ^ 0x57A7)
            .next();
    SchemeSelection sel = controller.updateScheme(
        model, &trainer.optimizer(), stats_batch);
    return sel.scheme;
}

/** Losses + eval accuracy of resuming under one scheme. */
struct RunOutcome
{
    std::vector<double> losses;
    EvalResult eval;
    double final_loss = 0.0;
    double fp4_fraction = 0.0;
};

/** Restore the checkpoint, apply @p scheme, resume @p steps, eval. */
inline RunOutcome
runScheme(Setup &s, const PrecisionScheme &scheme, int64_t steps,
          bool do_eval = true)
{
    s.trainer->restore(s.checkpoint);
    s.trainer->applyScheme(scheme);
    RunOutcome out;
    out.losses = s.trainer->train(steps);
    out.final_loss = out.losses.empty() ? 0.0 : out.losses.back();
    FlopsModel fm(s.trainer->model().registry());
    out.fp4_fraction = fm.fp4Fraction(scheme);
    if (do_eval)
        out.eval = evaluate(s.trainer->model(), s.suite);
    return out;
}

/** Mean of the last @p k entries (loss smoothing for noisy curves). */
inline double
tailMean(const std::vector<double> &v, size_t k)
{
    if (v.empty())
        return 0.0;
    k = std::min(k, v.size());
    double acc = 0.0;
    for (size_t i = v.size() - k; i < v.size(); ++i)
        acc += v[i];
    return acc / static_cast<double>(k);
}

/** Standard bench banner. */
inline void
banner(const char *id, const char *what)
{
    std::printf("=================================================="
                "====\n%s — %s\n"
                "=================================================="
                "====\n",
                id, what);
}

} // namespace bench
} // namespace snip

#endif // SNIP_BENCH_BENCH_COMMON_H
