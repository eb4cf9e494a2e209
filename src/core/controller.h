/**
 * @file
 * Step 6 / orchestration: the SnipController runs the whole Fig. 6
 * workflow — collect stats, probe, analyze, solve, apply — periodically
 * during training.
 *
 * Two execution modes mirror the paper's Sec. 6.3 overhead discussion:
 *
 *  - **Inline** (Config::async = false, the default): Steps 1-6 run
 *    synchronously at the update boundary through updateScheme(),
 *    which calls runSchemeUpdateGuarded() (src/async/) directly; the
 *    service's worker never starts. All solve time is *exposed* (the
 *    trainer waits).
 *  - **Async** (Config::async = true): Steps 1-3 still run inline at
 *    the boundary (they need the model), but the snapshot is handed to
 *    the background SchemeUpdateService (src/async/), which runs the
 *    divergence analysis and the ILP solve on a dedicated worker while
 *    training continues. The resulting scheme is applied at the
 *    predetermined boundary `snapshot_step + apply_delay`; if the
 *    worker is late the trainer blocks there (that residue is the
 *    *exposed* solve time, the rest is *hidden*). Because both the
 *    snapshot content and the application step are independent of
 *    worker timing and thread count, the scheme sequence and the
 *    training losses are bit-identical across thread counts — and
 *    with apply_delay = 0 they are bit-identical to inline mode.
 *
 * Every update reaches its scheme one way: selectScheme() ->
 * solveIlp(), which validates the instance, splits pipeline groups
 * and runs the DP (ilp/solver.h).
 *
 * UpdateOverhead splits each update's solver cost into hidden vs
 * exposed seconds so the paper's "the search overhead is hidden by
 * asynchronous execution" claim (Sec. 6.3) is measurable; see
 * bench/fig12_pipeline_timeline.cpp. It also counts what Steps 1-3 add
 * to the trainer's step in either mode: one training forward, shared by
 * the statistics pass and both probes, and three backwards
 * (core/noise_probe.h).
 */
#ifndef SNIP_CORE_CONTROLLER_H
#define SNIP_CORE_CONTROLLER_H

#include <memory>

#include "core/snip_optimizer.h"

namespace snip {

class SchemeUpdateService;
struct SchemeUpdateRequest;
struct SchemeUpdateResult;

/** Overhead accounting of one scheme update. */
struct UpdateOverhead
{
    /** Extra training forwards Steps 1-3 ran: the statistics pass's,
     *  which the probes reuse (1). */
    int extra_forwards = 0;
    /** Extra backwards Steps 1-3 ran: the statistics pass's and one per
     *  probe (3). */
    int extra_backwards = 0;
    /** ILP wall-clock seconds (the solver's own timer). */
    double solve_seconds = 0.0;
    /** Worker wall-clock of Steps 4-5 (analysis + solve). Inline mode:
     *  the same work measured on the trainer thread. */
    double work_seconds = 0.0;
    /** Portion of work_seconds overlapped with training steps. Always
     *  0 in inline mode. */
    double hidden_seconds = 0.0;
    /** Portion the trainer actually waited for (inline work, or the
     *  blocking wait at the apply boundary in async mode). */
    double exposed_seconds = 0.0;
    /** Update id this accounting belongs to (1-based). */
    uint64_t epoch = 0;
};

/** Running totals across all updates of one controller. */
struct OverheadTotals
{
    int updates = 0;
    double work_seconds = 0.0;
    double hidden_seconds = 0.0;
    double exposed_seconds = 0.0;
    /** Updates whose solve failed, resolved by keeping the current
     *  scheme (skip-update semantics). */
    int skipped = 0;
};

/** Periodic scheme-update driver. */
class SnipController
{
  public:
    /** All knobs of the SNIP pipeline. */
    struct Config
    {
        /** Efficiency target E_t: required FP4 FLOP fraction. */
        double target_fp4_fraction = 0.5;
        /** Steps between scheme regenerations (paper: ~100k real
         *  steps; scaled down here). */
        int64_t update_interval = 100;
        OptionSetKind option_set = OptionSetKind::Standard;
        QualityMetric metric = QualityMetric::Snip;
        double weight_div_scale = 1.0;
        ProbeOptions probe;
        /** Solver knobs: empty, and no update reads them (see
         *  IlpSolveOptions in ilp/solver.h). */
        IlpSolveOptions solve;
        PipelineConstraint pipeline;

        /** Run Steps 4-5 on the background worker (see file comment).
         */
        bool async = false;
        /** Steps between the snapshot boundary and the deterministic
         *  application boundary in async mode. Clamped to
         *  [0, update_interval - 1] so an update is always adopted
         *  before the next snapshot. 0 = submit-and-wait (bit-identical
         *  to inline mode). */
        int64_t apply_delay = 8;
    };

    explicit SnipController(const Config &config);
    ~SnipController();

    /**
     * Run Steps 1-6 once on @p batch and apply the resulting scheme to
     * the model — the synchronous path, regardless of Config::async.
     * Leaves parameter gradients dirty — callers zero them before
     * their next real training pass. Step 1's sweeps run on the
     * process-wide shared pool, the one the trainer's kernels use.
     */
    SchemeSelection updateScheme(LlamaModel &model, AdamW *optimizer,
                                 const Batch &batch);

    /**
     * Trainer hook, called every step. Regenerates the scheme while
     * none has been selected and none is pending (the first call, or
     * after a failed first solve) and when @p step hits the update
     * cadence; in async mode also adopts a pending background result
     * once @p step reaches its apply boundary. Returns true when a
     * scheme was applied to the model during this call.
     */
    bool maybeUpdate(LlamaModel &model, AdamW *optimizer,
                     const Batch &batch, int64_t step);

    const Config &config() const { return config_; }

    bool hasSelection() const { return has_selection_; }
    const SchemeSelection &lastSelection() const { return selection_; }
    const UpdateOverhead &lastOverhead() const { return overhead_; }
    const OverheadTotals &totals() const { return totals_; }

    /** Updates snapshotted so far (== epoch of the newest snapshot). */
    uint64_t epoch() const { return epoch_; }

    /** True when an async update has been submitted but not applied. */
    bool hasPendingUpdate() const { return pending_; }
    /** Boundary the pending update will be applied at. */
    int64_t pendingApplyStep() const { return pending_apply_step_; }

    /**
     * Serializable controller state (train/checkpoint.cpp). Exporting
     * waits for any in-flight solve and captures its outcome, so a
     * checkpoint taken mid-interval resumes with the identical pending
     * scheme re-armed at the identical apply step.
     */
    struct PersistState
    {
        uint64_t epoch = 0;
        bool has_selection = false;
        PrecisionScheme applied_scheme; ///< last applied (Step 6)
        double applied_fp4_fraction = 0.0;
        bool pending = false;
        int64_t pending_apply_step = 0;
        PrecisionScheme pending_scheme;
        double pending_fp4_fraction = 0.0;
    };

    PersistState exportState();
    /** Adopt @p state in place of this controller's own. Safe on a
     *  controller that already ran updates: an update still in flight
     *  finishes first and is dropped, and later epochs never meet a
     *  result published before the import. */
    void importState(const PersistState &state);

  private:
    /** Steps 1-3 on the trainer thread -> self-contained snapshot. */
    SchemeUpdateRequest makeSnapshot(LlamaModel &model, AdamW *optimizer,
                                     const Batch &batch, int64_t step);
    /** Block for the pending epoch and apply it (Step 6). */
    void adoptPending(LlamaModel &model);
    void applyResult(LlamaModel &model, const SchemeUpdateResult &result,
                     double waited_seconds);
    int64_t effectiveApplyDelay() const;

    Config config_;
    std::unique_ptr<SchemeUpdateService> service_;
    SchemeSelection selection_;
    UpdateOverhead overhead_;
    OverheadTotals totals_;
    bool has_selection_ = false;

    uint64_t epoch_ = 0;
    bool pending_ = false;
    uint64_t pending_epoch_ = 0;
    int64_t pending_apply_step_ = 0;
    /** Pending update re-armed from a checkpoint: already solved, just
     *  awaiting its apply boundary. */
    bool rearmed_ = false;
    SchemeSelection rearmed_selection_;
    /** Trainer seconds already spent blocked on the pending epoch
     *  outside adoptPending (exportState's wait); charged to
     *  exposed_seconds when the update is adopted. */
    double pending_wait_seconds_ = 0.0;
};

} // namespace snip

#endif // SNIP_CORE_CONTROLLER_H
