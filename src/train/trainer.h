/**
 * @file
 * End-to-end training driver: model + AdamW + synthetic data + optional
 * SnipController, with in-memory snapshots so different quantization
 * schemes can be compared from an identical checkpoint on identical
 * data (the paper's resume-pretraining methodology, Sec. 6.1).
 */
#ifndef SNIP_TRAIN_TRAINER_H
#define SNIP_TRAIN_TRAINER_H

#include <array>
#include <functional>
#include <memory>

#include "core/controller.h"
#include "data/batch.h"
#include "nn/model.h"
#include "optim/adamw.h"
#include "optim/lr_schedule.h"

namespace snip {

/** Everything needed to construct a training run. */
struct TrainerConfig
{
    ModelConfig model;
    CorpusConfig corpus;
    int64_t batch_size = 2;
    AdamWConfig adamw;
    LrScheduleKind lr_kind = LrScheduleKind::Constant;
    int64_t lr_total_steps = 1000;
    int64_t lr_warmup_steps = 0;
    uint64_t seed = 42;
    uint64_t data_seed = 7;
};

/** Full training state snapshot (parameters + optimizer + clock +
 *  active scheme + stochastic streams). The scheme and RNG states make
 *  restores bit-exact even under quantized training: the restored run
 *  quantizes with the same precisions and replays the stochastic
 *  rounding / probe-noise draws exactly where the snapshot left them. */
struct TrainerSnapshot
{
    std::vector<Tensor> param_values;
    std::vector<AdamW::State> opt_states;
    int64_t opt_step_count = 0;
    int64_t step = 0;
    /** Optimizer lr at snapshot time. The schedule overwrites it every
     *  step, but the SNIP statistics pass reads it *before* that, so a
     *  restore must reproduce the exact pre-step value. */
    double lr = 0.0;
    PrecisionScheme scheme;
    std::array<uint64_t, 4> quant_rng_state{};
    std::array<uint64_t, 4> noise_rng_state{};
};

/** Owns one training run. */
class Trainer
{
  public:
    explicit Trainer(const TrainerConfig &config);

    /** Train @p n_steps; returns the per-step losses. An optional
     *  SnipController regenerates the scheme on its cadence; an
     *  optional callback observes (step, loss). */
    std::vector<double>
    train(int64_t n_steps, SnipController *controller = nullptr,
          const std::function<void(int64_t, double)> &on_step = nullptr);

    /** One training step on the next batch; returns its loss. */
    double trainStep(SnipController *controller = nullptr);

    /** Evaluate the loss on @p n_batches *without* updating weights,
     *  replaying a fixed eval stream (seeded separately). */
    double evalLoss(int64_t n_batches);

    /** Next batch from the training stream (advances it). */
    Batch nextBatch() { return iter_->next(); }

    /** Apply a precision scheme to the model. */
    void applyScheme(const PrecisionScheme &scheme)
    {
        model_->setScheme(scheme);
    }

    /** Capture the full training state. */
    TrainerSnapshot snapshot() const;

    /** Restore a snapshot taken on this (or an identical) trainer.
     *  Also resets the data stream so replays see the same batches. */
    void restore(const TrainerSnapshot &snap);

    LlamaModel &model() { return *model_; }
    AdamW &optimizer() { return *opt_; }

    /** Execution pool for this run: runtime::globalThreadPool(), the
     *  one pool per process that the GEMM/quantizer kernels, the
     *  controller's statistics sweeps and evaluate() dispatch to.
     *  (Resolved per call so setGlobalThreadCount() sweeps in
     *  tests/benches never leave a stale handle.) */
    runtime::ThreadPool &pool();
    const SyntheticCorpus &corpus() const { return corpus_; }
    const TrainerConfig &config() const { return config_; }
    int64_t step() const { return step_; }
    const std::vector<double> &lossHistory() const { return losses_; }

  private:
    TrainerConfig config_;
    SyntheticCorpus corpus_;
    std::unique_ptr<LlamaModel> model_;
    std::unique_ptr<AdamW> opt_;
    std::unique_ptr<BatchIterator> iter_;
    LrSchedule lr_;
    int64_t step_ = 0;
    std::vector<double> losses_;
};

} // namespace snip

#endif // SNIP_TRAIN_TRAINER_H
