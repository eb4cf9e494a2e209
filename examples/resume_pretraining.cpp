/**
 * @file
 * Resume-pretraining scenario (the paper's evaluation methodology):
 * train a TinyLlama-class model to a checkpoint, save it to disk, then
 * resume from that checkpoint under three different precision policies
 * — BF16, SNIP at 75% FP4, and uniform FP4 — on identical data, and
 * compare losses and benchmark accuracy.
 *
 * The SNIP resume runs with the *async* controller: scheme updates are
 * solved on the background worker, training is checkpointed
 * mid-interval with the update still in flight, and a fresh
 * trainer+controller resume from that file and walk the identical loss
 * trajectory. The program exits 1 when the two final losses differ.
 *
 *   ./resume_pretraining [--warmup=300] [--steps=40]
 */
#include <cstdio>

#include "core/controller.h"
#include "eval/harness.h"
#include "train/checkpoint.h"
#include "train/presets.h"
#include "util/string_util.h"

using namespace snip;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const int64_t warmup = args.getInt("warmup", 300);
    const int64_t steps = args.getInt("steps", 40);

    TrainerConfig cfg = trainerPreset(tinyllamaSim());
    Trainer trainer(cfg);

    std::printf("pretraining %lld BF16 steps...\n",
                static_cast<long long>(warmup));
    trainer.train(warmup);
    if (saveCheckpoint(trainer, "resume_example.ckpt"))
        std::printf("checkpoint written to resume_example.ckpt\n");
    TrainerSnapshot ckpt = trainer.snapshot();
    auto suite = makeEvalSuite(trainer.corpus(), 15, 99);

    const size_t n_linear =
        static_cast<size_t>(trainer.model().registry().numLinear());

    struct Policy
    {
        const char *name;
        PrecisionScheme scheme;
    };
    std::vector<Policy> policies;
    policies.push_back(
        {"BF16", PrecisionScheme::uniform(n_linear, Precision::BF16)});

    // SNIP @ 75%: run the full stats->probe->ILP pipeline once.
    {
        SnipController::Config cc;
        cc.target_fp4_fraction = 0.75;
        SnipController controller(cc);
        Batch stats_batch = trainer.nextBatch();
        SchemeSelection sel = controller.updateScheme(
            trainer.model(), &trainer.optimizer(), stats_batch);
        policies.push_back({"SNIP@75%", sel.scheme});
        std::printf("\nSNIP scheme (%.1f%% FP4):\n%s\n",
                    sel.fp4_fraction * 100.0,
                    sel.scheme.renderHeatmap().c_str());
    }
    policies.push_back(
        {"FP4", PrecisionScheme::uniform(n_linear, Precision::FP4)});

    for (auto &policy : policies) {
        trainer.restore(ckpt);
        trainer.applyScheme(policy.scheme);
        auto losses = trainer.train(steps);
        EvalResult eval = evaluate(trainer.model(), suite);
        std::printf("%-9s resumed %lld steps: final loss %.4f, "
                    "avg accuracy %.1f%%\n",
                    policy.name, static_cast<long long>(steps),
                    losses.back(), eval.average);
    }

    // --- Async controller + mid-interval resume ---------------------
    std::printf("\nasync scheme updates with periodic re-search:\n");
    SnipController::Config cc;
    cc.target_fp4_fraction = 0.75;
    cc.update_interval = steps > 4 ? steps / 2 : 2;
    cc.apply_delay = cc.update_interval / 2;
    cc.async = true;

    trainer.restore(ckpt);
    SnipController controller(cc);
    std::vector<double> first_half;
    for (int64_t i = 0; i < steps / 2 + 1; ++i)
        first_half.push_back(trainer.trainStep(&controller));
    // Checkpoint while the second update may still be in flight; the
    // pending scheme and its apply boundary land in the file. keep=1
    // rotates the previous file to resume_async.ckpt.1 — the fallback
    // loadCheckpointWithFallback() walks if this one is ever torn.
    CheckpointWriteOptions copts;
    copts.keep = 1;
    CheckpointStatus save_status = CheckpointStatus::Ok;
    if (saveCheckpoint(trainer, "resume_async.ckpt", &controller,
                       &save_status, copts))
        std::printf("  checkpointed mid-interval at step %lld "
                    "(pending update: %s)\n",
                    static_cast<long long>(trainer.step()),
                    controller.hasPendingUpdate() ? "yes" : "no");
    else
        std::printf("  checkpoint write failed: %s\n",
                    checkpointStatusName(save_status));
    auto tail = trainer.train(steps - steps / 2 - 1, &controller);
    const double direct_final = tail.empty()
                                    ? first_half.back()
                                    : tail.back();

    Trainer resumed(cfg);
    SnipController resumed_controller(cc);
    CheckpointStatus load_status = CheckpointStatus::Ok;
    if (!loadCheckpoint(resumed, "resume_async.ckpt",
                        &resumed_controller, &load_status)) {
        std::printf("  could not reload resume_async.ckpt: %s\n",
                    checkpointStatusName(load_status));
        return 1;
    }
    auto resumed_tail =
        resumed.train(steps - steps / 2 - 1, &resumed_controller);
    const double resumed_final = resumed_tail.empty()
                                     ? first_half.back()
                                     : resumed_tail.back();
    const OverheadTotals &t = resumed_controller.totals();
    const bool identical = direct_final == resumed_final;
    std::printf("  direct final loss %.6f vs resumed %.6f (%s)\n",
                direct_final, resumed_final,
                identical ? "bit-identical" : "MISMATCH");
    std::printf("  resumed run: %d updates, solve time hidden %.1f ms / "
                "exposed %.1f ms\n",
                t.updates, 1e3 * t.hidden_seconds, 1e3 * t.exposed_seconds);
    return identical ? 0 : 1;
}
