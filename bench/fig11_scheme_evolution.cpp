/**
 * @file
 * Figure 11: evolution of SNIP's per-layer precision assignment at a
 * 75% FP4 budget across training checkpoints (the paper's 5k/10k/20k/
 * 50k/240k, scaled to simulator step counts).
 *
 * Expected shape (paper): assignments stay stable between nearby
 * checkpoints and shift at the latest one. Also reproduces the
 * overhead accounting of Sec. 6.3 (3 extra passes + CPU-side solve).
 */
#include "bench_common.h"

using namespace snip;
using namespace snip::bench;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const bool full = args.has("full");
    const std::vector<int64_t> ckpts =
        full ? std::vector<int64_t>{50, 100, 200, 400, 800}
             : std::vector<int64_t>{50, 100, 200, 400};
    const double budget = args.getDouble("budget", 0.75);

    banner("Figure 11", "evolution of SNIP assignments across "
                        "checkpoints @ 75% FP4");

    TrainerConfig cfg = trainerPreset(tinyllamaSim());
    Trainer trainer(cfg);

    PrecisionScheme prev;
    int64_t trained = 0;
    for (int64_t ckpt : ckpts) {
        trainer.train(ckpt - trained);
        trained = ckpt;
        // Selecting a scheme dirties gradients only; weights are
        // untouched, so training can continue afterwards.
        PrecisionScheme scheme =
            makeMethodScheme(trainer, "SNIP", budget);
        std::printf("\n--- checkpoint %lld steps ---\n%s",
                    static_cast<long long>(ckpt),
                    scheme.renderHeatmap().c_str());
        if (prev.numLayers() > 0) {
            int changed = 0;
            for (size_t i = 0; i < scheme.layers.size(); ++i)
                changed += !(scheme.layers[i] == prev.layers[i]);
            std::printf("layers changed vs previous checkpoint: %d/%zu\n",
                        changed, scheme.layers.size());
        }
        prev = scheme;
        // Keep training in BF16 between checkpoints, like the paper's
        // released BF16 checkpoints.
        trainer.applyScheme(PrecisionScheme::uniform(
            scheme.layers.size(), Precision::BF16));
        std::fflush(stdout);
    }

    // Overhead accounting (Sec. 6.3).
    SnipController::Config cc;
    cc.target_fp4_fraction = budget;
    SnipController controller(cc);
    Batch batch = BatchIterator(trainer.corpus(), cfg.batch_size, 0x57A7)
                      .next();
    controller.updateScheme(trainer.model(), &trainer.optimizer(),
                            batch);
    const UpdateOverhead &oh = controller.lastOverhead();
    std::printf("\nscheme-update overhead: %d extra forward(s), %d extra "
                "backward(s), ILP solve %.3fs\n",
                oh.extra_forwards, oh.extra_backwards, oh.solve_seconds);
    return 0;
}
