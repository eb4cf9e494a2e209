/**
 * @file
 * Figure 12: pipeline-parallel timeline of the 22-block model under
 * SNIP with a 50% FP4 budget and 4 stages (blocks split 6/6/6/4 as in
 * the paper), with the grouped ILP of Sec. 5.3 balancing per-stage
 * efficiency.
 *
 * Expected shape (paper): per-stage FP4 fractions are balanced (the
 * last, smaller stage may hold a different local fraction while the
 * pipeline stays balanced in time), and the grouped solution has a
 * lower bubble fraction than an unbalanced (global-constraint) one.
 *
 * Part two reproduces the Sec. 6.3 overhead discussion with the async
 * scheme-update service: training continues while the background
 * worker runs the divergence analysis and the (pipeline-grouped) ILP,
 * so nearly all solve wall-clock is hidden behind training steps, and
 * the deterministic inline fallback reproduces the async scheme
 * sequence exactly. The program exits 1 when that sequence differs;
 * the overlap figure depends on timing and is only reported.
 *
 *   ./fig12_pipeline_timeline [--warmup=400] [--steps=25]
 */
#include <cstdio>

#include "bench_common.h"
#include "parallel/pipeline.h"
#include "telemetry/telemetry.h"

using namespace snip;
using namespace snip::bench;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const int64_t warmup = args.getInt("warmup", 400);
    const int n_stages = static_cast<int>(args.getInt("stages", 4));
    const int microbatches = static_cast<int>(args.getInt("mb", 8));
    const double budget = args.getDouble("budget", 0.50);

    banner("Figure 12", "pipeline timeline, 4 stages @ 50% FP4");
    Setup setup = makeSetup(tinyllamaSim(), warmup, /*eval_items=*/5);
    Trainer &trainer = *setup.trainer;
    LlamaModel &model = trainer.model();
    FlopsModel flops(model.registry());

    const auto split = evenStageSplit(
        static_cast<int>(model.config().n_blocks), n_stages);
    std::printf("stage split (blocks): ");
    for (int s : split)
        std::printf("%d ", s);
    std::printf("\n\n");

    // SNIP with the grouped (pipeline-aware) constraint.
    Batch batch = BatchIterator(trainer.corpus(),
                                trainer.config().batch_size, 0x57A7)
                      .next();
    TrainingStats stats =
        collectTrainingStats(model, &trainer.optimizer(), batch);
    ProbeResult bwd =
        runNoiseProbe(model, batch, stats, ProbeKind::Backward);
    ProbeResult fwd =
        runNoiseProbe(model, batch, stats, ProbeKind::Forward);
    DivergenceAnalyzer analyzer(stats, &bwd, &fwd, flops);
    DivergenceTable table =
        analyzer.analyze(makeOptionSet(OptionSetKind::Standard));

    PipelineConstraint pc;
    pc.n_stages = n_stages;
    pc.blocks_per_stage = split;
    SchemeSelection grouped =
        selectScheme(table, budget, flops, {}, pc);
    SchemeSelection global = selectScheme(table, budget, flops, {});

    for (const auto &[label, sel] :
         {std::pair<const char *, SchemeSelection &>{"grouped (Sec. 5.3)",
                                                     grouped},
          std::pair<const char *, SchemeSelection &>{"global constraint",
                                                     global}}) {
        auto stages = buildStages(flops, sel.scheme, split);
        PipelineTimeline tl = simulatePipeline(stages, microbatches);
        std::printf("--- %s: fp4=%.1f%%, makespan=%.3g, bubble=%.1f%% "
                    "---\n%s\n",
                    label, sel.fp4_fraction * 100.0, tl.makespan,
                    tl.bubble_fraction * 100.0,
                    tl.render().c_str());
        std::printf("per-stage precision heatmaps:\n%s\n",
                    sel.scheme.renderHeatmap().c_str());
    }

    // --- Sec. 6.3: the async service hides the search overhead ------
    const int64_t steps = args.getInt("steps", 25);
    const int64_t interval = args.getInt("interval", 10);
    const int64_t delay = args.getInt("delay", 8);

    SnipController::Config base;
    base.target_fp4_fraction = budget;
    base.update_interval = interval;
    base.pipeline = pc;

    struct Pass
    {
        std::vector<PrecisionScheme> schemes;
        OverheadTotals totals;
    };
    auto runPass = [&](bool async, int64_t apply_delay, int64_t n_steps) {
        trainer.restore(setup.checkpoint);
        SnipController::Config cc = base;
        cc.async = async;
        cc.apply_delay = apply_delay;
        SnipController controller(cc);
        Pass pass;
        for (int64_t i = 0; i < n_steps; ++i) {
            trainer.trainStep(&controller);
            pass.schemes.push_back(trainer.model().currentScheme());
        }
        pass.totals = controller.totals();
        return pass;
    };

    std::printf("--- async scheme updates (Sec. 6.3): %lld steps, "
                "interval %lld, apply delay %lld ---\n",
                static_cast<long long>(steps),
                static_cast<long long>(interval),
                static_cast<long long>(delay));
    Pass async_pass = runPass(/*async=*/true, delay, steps);
    const OverheadTotals &t = async_pass.totals;
    const double overlap =
        t.work_seconds > 0.0 ? 100.0 * t.hidden_seconds / t.work_seconds
                             : 0.0;
    std::printf("updates: %d   solve+analysis wall: %.1f ms   "
                "hidden: %.1f ms   exposed: %.1f ms\n",
                t.updates, 1e3 * t.work_seconds, 1e3 * t.hidden_seconds,
                1e3 * t.exposed_seconds);
    std::printf("solve wall-clock overlapped with training: %.1f%% "
                "(target >= 80%%)\n\n",
                overlap);

    // Deterministic fallback: inline mode and async submit-and-wait
    // must walk the identical scheme sequence.
    Pass inline_pass = runPass(/*async=*/false, 0, steps);
    Pass fallback = runPass(/*async=*/true, 0, steps);
    bool identical = inline_pass.schemes.size() == fallback.schemes.size();
    for (size_t i = 0; identical && i < inline_pass.schemes.size(); ++i)
        identical = inline_pass.schemes[i] == fallback.schemes[i];
    std::printf("inline fallback scheme sequence identical to "
                "async(delay=0): %s\n",
                identical ? "yes" : "NO — determinism bug");

    if (telemetry::enabled()) {
        telemetry::flush();
        std::printf("\ntelemetry (%lld step records): %s\n",
                    static_cast<long long>(telemetry::stepsRecorded()),
                    telemetry::summary().c_str());
    }
    return identical ? 0 : 1;
}
