#include "core/controller.h"

#include <algorithm>
#include <chrono>

#include "async/scheme_service.h"
#include "telemetry/obs.h"
#include "util/logging.h"

namespace snip {

namespace {

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

SnipController::SnipController(const Config &config)
    : config_(config),
      service_(std::make_unique<SchemeUpdateService>())
{
}

SnipController::~SnipController() = default;

int64_t
SnipController::effectiveApplyDelay() const
{
    int64_t delay = std::max<int64_t>(0, config_.apply_delay);
    // An update must be adopted before the next snapshot boundary, or
    // the handoff would hold two epochs in flight.
    if (config_.update_interval > 0)
        delay = std::min(delay, config_.update_interval - 1);
    return delay;
}

SchemeUpdateRequest
SnipController::makeSnapshot(LlamaModel &model, AdamW *optimizer,
                             const Batch &batch, int64_t step)
{
    // Steps 1-3: instrumented iteration + the two noise probes, one
    // forward and three backwards. These need the model, so they always
    // run on the trainer thread.
    TrainingStats stats = collectTrainingStats(model, optimizer, batch);
    ProbeResult bwd = runNoiseProbe(model, batch, stats,
                                    ProbeKind::Backward, config_.probe);
    ProbeResult fwd = runNoiseProbe(model, batch, stats,
                                    ProbeKind::Forward, config_.probe);
    // The probes were the only readers of the gradient dumps and the two
    // kept tensors; the analysis never looks at them, so they stay out
    // of the snapshot.
    for (auto &layer : stats.layers)
        layer.dw_dump = Tensor();
    stats.hidden = Tensor();
    stats.hidden_grad = Tensor();

    SchemeUpdateRequest req;
    req.epoch = ++epoch_;
    req.snapshot_step = step;
    req.apply_step = step + effectiveApplyDelay();
    req.stats = std::move(stats);
    req.bwd_probe = std::move(bwd);
    req.fwd_probe = std::move(fwd);
    req.flops = FlopsModel(model.registry());
    req.options = makeOptionSet(config_.option_set);
    req.divergence.metric = config_.metric;
    req.divergence.weight_div_scale = config_.weight_div_scale;
    req.target_fp4_fraction = config_.target_fp4_fraction;
    req.pipeline = config_.pipeline;

    overhead_ = UpdateOverhead{};
    overhead_.extra_forwards = 1;
    overhead_.extra_backwards = 3;
    overhead_.epoch = req.epoch;
    return req;
}

void
SnipController::applyResult(LlamaModel &model,
                            const SchemeUpdateResult &result,
                            double waited_seconds)
{
    if (result.failed) {
        // Skip-update semantics: the worker's solve failed, so this
        // epoch resolves by keeping the scheme already on the model.
        // Training continues deterministically — the boundary was
        // honored, nothing was applied.
        warn("scheme update epoch ", result.epoch,
             " resolved as a skip; keeping the current scheme");
        ++totals_.skipped;
        totals_.exposed_seconds += waited_seconds;
        overhead_.epoch = result.epoch;
        overhead_.exposed_seconds = waited_seconds;
        telemetry::count(telemetry::Counter::SchemeUpdateSkips);
        telemetry::recordTimer(telemetry::Timer::SchemeWait,
                               waited_seconds);
        return;
    }

    // Step 6: apply.
    model.setScheme(result.selection.scheme);
    selection_ = result.selection;
    has_selection_ = true;

    overhead_.epoch = result.epoch;
    overhead_.solve_seconds = result.selection.ilp.solve_seconds;
    overhead_.work_seconds = result.work_seconds;
    overhead_.exposed_seconds = waited_seconds;
    overhead_.hidden_seconds =
        std::max(0.0, result.work_seconds - waited_seconds);

    ++totals_.updates;
    totals_.work_seconds += overhead_.work_seconds;
    totals_.hidden_seconds += overhead_.hidden_seconds;
    totals_.exposed_seconds += overhead_.exposed_seconds;

    telemetry::count(telemetry::Counter::SchemeUpdates);
    telemetry::addSeconds(telemetry::Seconds::SchemeWork,
                          overhead_.work_seconds);
    telemetry::addSeconds(telemetry::Seconds::SchemeHidden,
                          overhead_.hidden_seconds);
    telemetry::addSeconds(telemetry::Seconds::SchemeExposed,
                          overhead_.exposed_seconds);
    telemetry::recordTimer(telemetry::Timer::SchemeWait, waited_seconds);
}

SchemeSelection
SnipController::updateScheme(LlamaModel &model, AdamW *optimizer,
                             const Batch &batch)
{
    // Synchronous Steps 1-6 on the caller. Bypasses the service so a
    // manual update never races a pending async epoch.
    SchemeUpdateRequest req =
        makeSnapshot(model, optimizer, batch, /*step=*/0);
    req.apply_step = req.snapshot_step;
    SchemeUpdateResult result = runSchemeUpdateGuarded(req);
    applyResult(model, result, /*waited_seconds=*/result.work_seconds);
    return selection_;
}

void
SnipController::adoptPending(LlamaModel &model)
{
    SNIP_ASSERT(pending_, "no pending update to adopt");
    if (rearmed_) {
        // Re-armed from a checkpoint: the solve happened before the
        // checkpoint was written, so adoption is free in this process.
        SchemeUpdateResult result;
        result.epoch = pending_epoch_;
        result.apply_step = pending_apply_step_;
        result.selection = rearmed_selection_;
        applyResult(model, result, /*waited_seconds=*/0.0);
        rearmed_ = false;
        pending_ = false;
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    SchemeUpdateResult result = [&] {
        obs::Scope span(trace::Category::Scheme, "handoff_wait", "epoch",
                        static_cast<int64_t>(pending_epoch_));
        return service_->wait(pending_epoch_);
    }();
    // Any earlier blocking wait on this epoch (exportState during a
    // mid-interval checkpoint) was trainer time too.
    applyResult(model, result,
                secondsSince(t0) + pending_wait_seconds_);
    pending_wait_seconds_ = 0.0;
    pending_ = false;
}

bool
SnipController::maybeUpdate(LlamaModel &model, AdamW *optimizer,
                            const Batch &batch, int64_t step)
{
    bool applied = false;
    // Deterministic handoff: a pending update is adopted exactly when
    // the trainer reaches its apply boundary, blocking if the worker
    // has not finished — never earlier, never later.
    if (pending_ && step >= pending_apply_step_) {
        adoptPending(model);
        applied = true;
    }

    const bool due =
        (!has_selection_ && !pending_) ||
        (config_.update_interval > 0 && step > 0 &&
         step % config_.update_interval == 0);
    if (!due)
        return applied;

    if (pending_) {
        // A snapshot boundary arrived while an update was still in
        // flight (apply_delay clamped == interval - 1 and a start
        // trigger offset). Adopt it first so one epoch is in flight at
        // a time.
        adoptPending(model);
        applied = true;
    }

    if (!config_.async) {
        updateScheme(model, optimizer, batch);
        return true;
    }

    SchemeUpdateRequest req = makeSnapshot(model, optimizer, batch, step);
    pending_epoch_ = req.epoch;
    pending_apply_step_ = req.apply_step;
    pending_ = true;
    service_->submit(std::move(req));
    if (pending_apply_step_ <= step) {
        // apply_delay == 0: submit-and-wait, bit-identical to inline.
        adoptPending(model);
        applied = true;
    }
    return applied;
}

SnipController::PersistState
SnipController::exportState()
{
    PersistState state;
    state.epoch = epoch_;
    state.has_selection = has_selection_;
    state.applied_scheme = selection_.scheme;
    state.applied_fp4_fraction = selection_.fp4_fraction;
    state.pending = pending_;
    if (pending_) {
        state.pending_apply_step = pending_apply_step_;
        if (rearmed_) {
            state.pending_scheme = rearmed_selection_.scheme;
            state.pending_fp4_fraction = rearmed_selection_.fp4_fraction;
        } else {
            // Wait for the in-flight solve; its outcome is part of the
            // checkpoint. The update stays pending in this process,
            // and the time blocked here counts as exposed when it is
            // eventually adopted.
            const auto t0 = std::chrono::steady_clock::now();
            SchemeUpdateResult result = service_->wait(pending_epoch_);
            pending_wait_seconds_ += secondsSince(t0);
            if (result.failed) {
                // The pending epoch resolved as a skip: a resumed run
                // has nothing to re-arm (the current scheme simply
                // stays), so persist "no pending update".
                state.pending = false;
            } else {
                state.pending_scheme = result.selection.scheme;
                state.pending_fp4_fraction =
                    result.selection.fp4_fraction;
            }
        }
    }
    return state;
}

void
SnipController::importState(const PersistState &state)
{
    // Epochs restart from the file's, so the old service's slot, which
    // holds the last epoch this controller published, must not answer
    // them. Replacing the service finishes any update still running
    // (the old one's destructor drains its worker) and drops it.
    service_ = std::make_unique<SchemeUpdateService>();
    epoch_ = state.epoch;
    has_selection_ = state.has_selection;
    selection_ = SchemeSelection{};
    selection_.scheme = state.applied_scheme;
    selection_.fp4_fraction = state.applied_fp4_fraction;
    overhead_ = UpdateOverhead{};
    pending_ = state.pending;
    pending_wait_seconds_ = 0.0;
    rearmed_ = false;
    if (pending_) {
        pending_epoch_ = epoch_;
        pending_apply_step_ = state.pending_apply_step;
        rearmed_ = true;
        rearmed_selection_ = SchemeSelection{};
        rearmed_selection_.scheme = state.pending_scheme;
        rearmed_selection_.fp4_fraction = state.pending_fp4_fraction;
    }
}

} // namespace snip
