/**
 * @file
 * Background scheme-update service (paper Sec. 6.3).
 *
 * The paper hides the scheme-search overhead by running the statistics
 * analysis and the ILP solve asynchronously on the CPU while training
 * continues. This service reproduces that split for the CPU-only
 * reproduction:
 *
 *   1. At an update boundary the trainer runs Steps 1-3 (instrumented
 *      iteration + the two noise probes) inline — these need the model
 *      — and snapshots their outputs into a SchemeUpdateRequest. The
 *      snapshot is self-contained (stats, probe responses, FLOPs model,
 *      option set, target, pipeline groups), so the worker never
 *      touches the model or the trainer's thread pool.
 *   2. The worker runs Steps 4-5 (divergence analysis + ILP solve) on
 *      a dedicated runtime::TaskThread and publishes the
 *      SchemeUpdateResult into one epoch-tagged handoff slot.
 *   3. The trainer adopts the published scheme at a *predetermined*
 *      step boundary (request.apply_step), blocking if the worker has
 *      not finished by then. Because both the snapshot content and the
 *      application step are independent of worker timing, training is
 *      bit-identical for any thread count and any worker speed.
 *
 * Only async controllers submit. An inline controller
 * (SnipController::Config::async = false) runs runSchemeUpdateGuarded()
 * itself, the exact path the worker runs, so inline updates are
 * bit-identical to async mode with apply_delay = 0 — tests assert the
 * same scheme sequence either way. The worker thread starts on the
 * first submit(), so a service that never gets one costs nothing.
 */
#ifndef SNIP_ASYNC_SCHEME_SERVICE_H
#define SNIP_ASYNC_SCHEME_SERVICE_H

#include "core/snip_optimizer.h"
#include "runtime/task_thread.h"
#include "util/thread_annotations.h"

namespace snip {

/**
 * Snapshot of everything Steps 4-5 need, taken at an update boundary.
 * Owns deep copies: after submit() the trainer may freely mutate the
 * model, optimizer and its statistics buffers.
 */
struct SchemeUpdateRequest
{
    /** Monotonic update id (1-based); tags the handoff slot. */
    uint64_t epoch = 0;
    /** Trainer step the snapshot was taken at. */
    int64_t snapshot_step = 0;
    /** Step boundary the result must be applied at (>= snapshot_step).
     */
    int64_t apply_step = 0;

    /** Step 1-3 outputs. Gradient dumps should be cleared before
     *  submission (the probes already consumed them). */
    TrainingStats stats;
    ProbeResult bwd_probe;
    ProbeResult fwd_probe;

    /** Analysis/solve inputs (value copies; FlopsModel owns its data).
     */
    FlopsModel flops;
    std::vector<LayerScheme> options;
    DivergenceOptions divergence;
    double target_fp4_fraction = 0.5;
    PipelineConstraint pipeline;
};

/** What the worker publishes for one epoch. */
struct SchemeUpdateResult
{
    uint64_t epoch = 0;
    int64_t apply_step = 0;
    SchemeSelection selection;
    /** Wall-clock seconds the worker spent on Steps 4-5 (analysis +
     *  solve). */
    double work_seconds = 0.0;
    /** The solve threw (or an injected scheme.solve fault fired):
     *  selection is empty and the controller resolves the epoch by
     *  keeping the current scheme (skip-update). */
    bool failed = false;
};

/**
 * Steps 4-5 as a pure function of the snapshot — the single code path
 * both inline updates and the async worker execute, which is what
 * makes the two modes bit-identical. Throws whatever the analysis or
 * the solver throws.
 */
SchemeUpdateResult runSchemeUpdate(const SchemeUpdateRequest &request);

/**
 * runSchemeUpdate with failure containment: an exception (including
 * an injected "scheme.solve" fault) is logged and converted into a
 * `failed` result carrying the request's epoch and apply step, so the
 * trainer's deterministic apply boundary is still honored — the
 * worker never takes the process down.
 */
SchemeUpdateResult
runSchemeUpdateGuarded(const SchemeUpdateRequest &request);

/** Owns the worker and the epoch-tagged handoff (see file comment). */
class SchemeUpdateService
{
  public:
    /** Hand a snapshot to the worker. Returns request.epoch. At most
     *  one update may be in flight per service (the controller
     *  enforces this). */
    uint64_t submit(SchemeUpdateRequest request);

    /** Block until @p epoch is published and return a copy of it. */
    SchemeUpdateResult wait(uint64_t epoch);

  private:
    void publish(SchemeUpdateResult result);

    /**
     * One slot: the worker publishes into it and the trainer copies out
     * of it, both under mu_, and the controller reads an epoch before
     * it submits the next, so a publication never lands on a result
     * still to be read. Epochs are 1-based: 0 means none published.
     * They only grow within one service: a controller that imports a
     * checkpoint restarts its epochs and so takes a new service.
     */
    util::Mutex mu_;
    util::CondVar published_cv_;
    SchemeUpdateResult result_ SNIP_GUARDED_BY(mu_);

    /** Declared last: destroyed (drained + joined) first, so in-flight
     *  tasks can still publish into the members above. */
    runtime::TaskThread worker_;
};

} // namespace snip

#endif // SNIP_ASYNC_SCHEME_SERVICE_H
