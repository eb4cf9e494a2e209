#include "train/trainer.h"

#include "runtime/thread_pool.h"
#include "telemetry/obs.h"
#include "tensor/gemm.h"
#include "util/logging.h"

namespace snip {

runtime::ThreadPool &
Trainer::pool()
{
    return runtime::globalThreadPool();
}

Trainer::Trainer(const TrainerConfig &config)
    : config_(config),
      corpus_(config.corpus),
      model_(std::make_unique<LlamaModel>(config.model, config.seed)),
      opt_(std::make_unique<AdamW>(model_->params(), config.adamw)),
      iter_(std::make_unique<BatchIterator>(corpus_, config.batch_size,
                                            config.data_seed)),
      lr_(config.lr_kind, config.adamw.lr, config.lr_total_steps,
          config.lr_warmup_steps)
{
    SNIP_ASSERT(config.corpus.seq_len <= config.model.max_seq,
                "corpus sequences longer than the model's max_seq");
}

double
Trainer::trainStep(SnipController *controller)
{
    obs::Scope step_span(trace::Category::Train, "step", "step", step_);
    Batch batch = iter_->next();
    {
        // The apply boundary is a phase of every step, controller or
        // not: a near-zero span here means "nothing adopted".
        obs::Scope span(trace::Category::Train, "scheme_apply", "step",
                        step_);
        if (controller)
            controller->maybeUpdate(*model_, opt_.get(), batch, step_);
    }

    model_->zeroGrad();
    LossResult loss = [&] {
        obs::Scope span(trace::Category::Train, "fwd", "step", step_);
        return model_->forwardLoss(batch.tokens, batch.targets,
                                   batch.batch, batch.seq);
    }();
    {
        obs::Scope span(trace::Category::Train, "bwd", "step", step_);
        model_->backward(loss.dlogits);
    }
    {
        obs::Scope span(trace::Category::Train, "optim", "step", step_);
        opt_->setLr(lr_.at(step_));
        opt_->step();
    }
    ++step_;
    losses_.push_back(loss.loss);
    telemetry::stepBoundary(step_);
    return loss.loss;
}

std::vector<double>
Trainer::train(int64_t n_steps, SnipController *controller,
               const std::function<void(int64_t, double)> &on_step)
{
    std::vector<double> out;
    out.reserve(static_cast<size_t>(n_steps));
    for (int64_t i = 0; i < n_steps; ++i) {
        double loss = trainStep(controller);
        out.push_back(loss);
        if (on_step)
            on_step(step_ - 1, loss);
    }
    return out;
}

double
Trainer::evalLoss(int64_t n_batches)
{
    BatchIterator eval_iter(corpus_, config_.batch_size,
                            config_.data_seed ^ 0xE7A1ull);
    double total = 0.0;
    for (int64_t i = 0; i < n_batches; ++i) {
        Batch b = eval_iter.next();
        LossResult r =
            model_->forwardLoss(b.tokens, b.targets, b.batch, b.seq);
        total += r.loss;
    }
    return n_batches > 0 ? total / static_cast<double>(n_batches) : 0.0;
}

TrainerSnapshot
Trainer::snapshot() const
{
    TrainerSnapshot snap;
    auto params = const_cast<LlamaModel &>(*model_).params();
    snap.param_values.reserve(params.size());
    for (auto &p : params)
        snap.param_values.push_back(*p.value);
    snap.opt_states = opt_->snapshot();
    snap.opt_step_count = opt_->stepCount();
    snap.step = step_;
    snap.lr = opt_->config().lr;
    snap.scheme = model_->currentScheme();
    const LlamaModel &model = *model_;
    snap.quant_rng_state = model.quantizer().rng().state();
    snap.noise_rng_state = model.noiseRng().state();
    return snap;
}

void
Trainer::restore(const TrainerSnapshot &snap)
{
    auto params = model_->params();
    SNIP_ASSERT(snap.param_values.size() == params.size(),
                "snapshot/model mismatch");
    for (size_t i = 0; i < params.size(); ++i) {
        SNIP_ASSERT(params[i].value->sameShape(snap.param_values[i]));
        *params[i].value = snap.param_values[i];
        params[i].grad->zero();
    }
    // The ParamRef writes above bypass Linear::weight(): stale every
    // packed-weight panel in the process.
    invalidateWeightPacks();
    opt_->restore(snap.opt_states, snap.opt_step_count);
    opt_->setLr(snap.lr);
    model_->setScheme(snap.scheme);
    model_->quantizer().rng().setState(snap.quant_rng_state);
    model_->noiseRng().setState(snap.noise_rng_state);
    step_ = snap.step;
    // Replay the data stream to the snapshot position so resumed runs
    // see the batches they would have seen.
    iter_->reset();
    for (int64_t i = 0; i < snap.step; ++i)
        (void)iter_->next();
}

} // namespace snip
