#include "eval/harness.h"

#include <algorithm>
#include <memory>

#include "nn/loss.h"
#include "runtime/thread_pool.h"
#include "util/logging.h"

namespace snip {

double
EvalResult::taskAccuracy(const std::string &name) const
{
    for (const auto &t : tasks) {
        if (t.name == name || t.analog_of == name)
            return t.accuracy;
    }
    fatal("no such eval task: ", name);
}

bool
scoreItem(LlamaModel &model, const EvalItem &item)
{
    SNIP_ASSERT(!item.options.empty());
    double best = -1e300;
    int best_idx = 0;
    for (size_t o = 0; o < item.options.size(); ++o) {
        const auto &opt = item.options[o];
        std::vector<int32_t> seq = item.context;
        seq.insert(seq.end(), opt.begin(), opt.end());
        const int64_t len = static_cast<int64_t>(seq.size());
        SNIP_ASSERT(len >= 2 && len <= model.config().max_seq,
                    "item length out of range");

        Tensor logits = model.forward(seq, /*batch=*/1, /*seq=*/len,
                                      ForwardMode::Train);
        // Row r predicts token r+1: option tokens live at positions
        // [ctx, len); the rows scoring them are [ctx-1, len-1).
        const int64_t ctx = static_cast<int64_t>(item.context.size());
        std::vector<int32_t> shifted(static_cast<size_t>(len), 0);
        for (int64_t r = 0; r + 1 < len; ++r)
            shifted[static_cast<size_t>(r)] =
                seq[static_cast<size_t>(r + 1)];
        double lp = sequenceLogProb(logits, shifted, ctx - 1, len - 1);
        lp /= static_cast<double>(opt.size()); // length normalization
        if (lp > best) {
            best = lp;
            best_idx = static_cast<int>(o);
        }
    }
    return best_idx == item.correct;
}

TaskScore
evaluateTask(LlamaModel &model, const EvalTask &task)
{
    TaskScore score;
    score.name = task.name;
    score.analog_of = task.analog_of;
    score.n_items = static_cast<int>(task.items.size());
    int correct = 0;
    for (const auto &item : task.items)
        correct += scoreItem(model, item);
    score.accuracy = score.n_items > 0
                         ? 100.0 * correct / score.n_items
                         : 0.0;
    return score;
}

namespace {

/** Fresh model with @p model's weights, pinned to uniform BF16 (the
 *  precision evaluation always runs at). Forward passes on distinct
 *  replicas share no mutable state, so shards can score items
 *  concurrently. */
std::unique_ptr<LlamaModel>
makeEvalReplica(LlamaModel &model)
{
    auto rep = std::make_unique<LlamaModel>(model.config(), /*seed=*/1);
    ParamList src = model.params();
    ParamList dst = rep->params();
    SNIP_ASSERT(src.size() == dst.size(), "replica parameter mismatch");
    for (size_t i = 0; i < src.size(); ++i) {
        SNIP_ASSERT(dst[i].value->sameShape(*src[i].value));
        *dst[i].value = *src[i].value;
    }
    rep->setScheme(PrecisionScheme::uniform(
        static_cast<size_t>(rep->registry().numLinear()),
        Precision::BF16));
    return rep;
}

/** evaluateTask over item shards spread across @p models. Every item's
 *  verdict is independent of which replica scores it (identical weights,
 *  deterministic BF16 forward), so the accuracy is identical for any
 *  shard count. */
TaskScore
evaluateTaskSharded(const std::vector<LlamaModel *> &models,
                    const EvalTask &task, runtime::ThreadPool &pool)
{
    TaskScore score;
    score.name = task.name;
    score.analog_of = task.analog_of;
    score.n_items = static_cast<int>(task.items.size());

    const int64_t n = static_cast<int64_t>(task.items.size());
    const int64_t shards = static_cast<int64_t>(models.size());
    std::vector<int> correct(static_cast<size_t>(shards), 0);
    pool.parallelFor(0, shards, 1, [&](int64_t s0, int64_t s1) {
        for (int64_t s = s0; s < s1; ++s) {
            const int64_t i0 = s * n / shards;
            const int64_t i1 = (s + 1) * n / shards;
            int c = 0;
            for (int64_t i = i0; i < i1; ++i)
                c += scoreItem(*models[static_cast<size_t>(s)],
                               task.items[static_cast<size_t>(i)]);
            correct[static_cast<size_t>(s)] = c;
        }
    });
    int total = 0;
    for (int c : correct)
        total += c;
    score.accuracy = score.n_items > 0
                         ? 100.0 * total / score.n_items
                         : 0.0;
    return score;
}

} // namespace

EvalResult
evaluate(LlamaModel &model, const std::vector<EvalTask> &suite,
         runtime::ThreadPool *pool)
{
    // lm-eval scores trained checkpoints at high precision; the
    // quantization scheme affects *training*, not inference. Run the
    // suite in uniform BF16 and restore the active scheme after.
    const PrecisionScheme active = model.currentScheme();
    model.setScheme(PrecisionScheme::uniform(
        static_cast<size_t>(model.registry().numLinear()),
        Precision::BF16));

    runtime::ThreadPool &p = runtime::poolOrGlobal(pool);
    int64_t max_items = 0;
    for (const auto &task : suite)
        max_items = std::max(max_items,
                             static_cast<int64_t>(task.items.size()));
    // Each extra shard costs a full weight replica, so cap the fan-out:
    // past ~8 shards eval is short enough that replica construction and
    // memory dominate any further speedup on many-core hosts.
    constexpr int64_t kMaxEvalShards = 8;
    const int64_t shards = std::min<int64_t>(
        {p.numThreads(), std::max<int64_t>(max_items, 1),
         kMaxEvalShards});

    // Shard 0 is the caller's model; extra shards get weight replicas.
    std::vector<std::unique_ptr<LlamaModel>> replicas;
    std::vector<LlamaModel *> models;
    models.push_back(&model);
    for (int64_t s = 1; s < shards; ++s) {
        replicas.push_back(makeEvalReplica(model));
        models.push_back(replicas.back().get());
    }

    EvalResult result;
    double sum = 0.0;
    for (const auto &task : suite) {
        result.tasks.push_back(shards > 1
                                   ? evaluateTaskSharded(models, task, p)
                                   : evaluateTask(model, task));
        sum += result.tasks.back().accuracy;
    }
    result.average = suite.empty()
                         ? 0.0
                         : sum / static_cast<double>(suite.size());
    model.setScheme(active);
    return result;
}

} // namespace snip
