/**
 * @file
 * LM-Evaluation-Harness-style scoring (Sec. 6.1, "Evaluation").
 *
 * Each multiple-choice item is scored 0-shot by running the model over
 * context+option and picking the option with the highest length-
 * normalized log-likelihood — the same methodology lm-eval uses for
 * ARC/HellaSwag/PiQA etc.
 */
#ifndef SNIP_EVAL_HARNESS_H
#define SNIP_EVAL_HARNESS_H

#include <string>
#include <vector>

#include "data/tasks.h"
#include "nn/model.h"

namespace snip {

/** Accuracy of one task. */
struct TaskScore
{
    std::string name;
    std::string analog_of;
    double accuracy = 0.0; ///< percent correct
    int n_items = 0;
};

/** Accuracy across the whole suite. */
struct EvalResult
{
    std::vector<TaskScore> tasks;
    /** Unweighted mean of task accuracies (the paper's "Average"). */
    double average = 0.0;

    /** Accuracy of the task named @p name; fatal() if missing. */
    double taskAccuracy(const std::string &name) const;
};

/** Score one item; returns true if the model picks the correct option. */
bool scoreItem(LlamaModel &model, const EvalItem &item);

/** Evaluate one task. */
TaskScore evaluateTask(LlamaModel &model, const EvalTask &task);

/**
 * Evaluate the full suite.
 *
 * Items are sharded across the process-wide shared pool, each shard
 * scoring on its own BF16 replica of the model. Replicas are exact
 * weight copies and the BF16 forward pass is deterministic, so the
 * returned accuracies are identical for every thread count.
 */
EvalResult evaluate(LlamaModel &model, const std::vector<EvalTask> &suite);

} // namespace snip

#endif // SNIP_EVAL_HARNESS_H
