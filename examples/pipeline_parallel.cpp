/**
 * @file
 * Pipeline-parallelism scenario (Sec. 5.3): pick schemes with and
 * without the grouped per-stage constraint and compare the simulated
 * 1F1B timelines — showing why balanced per-stage FP4 fractions matter
 * for pipeline throughput.
 *
 *   ./pipeline_parallel [--stages=4] [--mb=8] [--target=0.5]
 */
#include <cstdio>

#include "core/controller.h"
#include "parallel/pipeline.h"
#include "train/presets.h"
#include "util/string_util.h"

using namespace snip;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const int n_stages = static_cast<int>(args.getInt("stages", 4));
    const int mb = static_cast<int>(args.getInt("mb", 8));
    const double target = args.getDouble("target", 0.5);

    TrainerConfig cfg = trainerPreset(tinyllamaSim());
    Trainer trainer(cfg);
    trainer.train(30); // populate optimizer moments

    LlamaModel &model = trainer.model();
    FlopsModel flops(model.registry());
    const auto split = evenStageSplit(
        static_cast<int>(model.config().n_blocks), n_stages);

    // Shared stats/analysis.
    Batch batch = trainer.nextBatch();
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
    pc.n_stages = n_stages; // the ILP groups by evenStageSplit too

    SchemeSelection grouped = selectScheme(table, target, flops, {}, pc);
    SchemeSelection global = selectScheme(table, target, flops, {});

    for (auto &[name, sel] :
         {std::pair<const char *, SchemeSelection &>{"pipeline-aware",
                                                     grouped},
          std::pair<const char *, SchemeSelection &>{"global-only",
                                                     global}}) {
        auto stages = buildStages(flops, sel.scheme, split);
        PipelineTimeline tl = simulatePipeline(stages, mb);
        std::printf("=== %s (fp4 %.1f%%) ===\n", name,
                    sel.fp4_fraction * 100.0);
        std::printf("per-stage fp4 fractions:");
        for (const auto &st : stages)
            std::printf(" %.0f%%", st.fp4_fraction * 100.0);
        std::printf("\nmakespan %.4g, bubble %.1f%%\n%s\n", tl.makespan,
                    tl.bubble_fraction * 100.0, tl.render().c_str());
    }
    return 0;
}
