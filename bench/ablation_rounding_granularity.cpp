/**
 * @file
 * Ablation (DESIGN.md Sec. 5): the quantization recipe itself.
 *   1. Stochastic rounding vs round-to-nearest for FP4 gradients
 *      (Sec. 6.1: SR "avoids training stagnation").
 *   2. Scaling granularity: DeepSeek tile/block vs tensorwise vs
 *      rowwise, measured as quantization error and as training loss.
 *
 * Expected shape: tensorwise scaling has the largest error; the
 * tile/block recipe the smallest among the cheap options; RNE-on-
 * gradients trains worse than SR at FP4.
 */
#include <cstdio>

#include "bench_common.h"
#include "quant/error_metrics.h"

using namespace snip;
using namespace snip::bench;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const bool full = args.has("full");
    const int64_t steps = args.getInt("steps", full ? 120 : 60);

    banner("Ablation B", "rounding mode and scaling granularity");

    // Part 1: quantization error by granularity on real layer tensors.
    {
        Setup setup = makeSetup(tinyllamaSim(), 400, 5);
        Trainer &trainer = *setup.trainer;
        Batch batch = BatchIterator(trainer.corpus(),
                                    trainer.config().batch_size, 0x77)
                          .next();
        TrainingStats stats = collectTrainingStats(
            trainer.model(), &trainer.optimizer(), batch);
        (void)stats;

        // Use a middle layer's weight as a representative tensor.
        Tensor w = trainer.model()
                       .linear(trainer.model().registry().numLinear() /
                               2)
                       .weight();
        TablePrinter t({"granularity", "fp4 rel err", "fp8 rel err"});
        const std::pair<const char *, ScalingSpec> specs[] = {
            {"tensorwise", {Granularity::Tensorwise, 0}},
            {"rowwise", {Granularity::Rowwise, 0}},
            {"blockwise128", {Granularity::Blockwise, 128}},
            {"blockwise32", {Granularity::Blockwise, 32}},
            {"tilewise128", {Granularity::Tilewise, 128}},
        };
        for (const auto &[name, spec] : specs) {
            t.newRow();
            t.cell(std::string(name));
            t.cell(measureQuantError(
                       w, QuantConfig{fp4E2m1(), spec,
                                      Rounding::Nearest})
                       .rel_error,
                   5);
            t.cell(measureQuantError(
                       w, QuantConfig{fp8E4m3(), spec,
                                      Rounding::Nearest})
                       .rel_error,
                   5);
        }
        t.print();
    }

    // Part 2: SR vs RNE for FP4 gradients during actual training.
    // RNE is emulated by overriding the layer scheme's gradient
    // rounding via a custom run: we retrain at uniform FP4 twice, once
    // with the standard policy (SR on grads) and once by quantizing
    // gradients through a nearest-rounding pre-pass.
    {
        std::printf("\nFP4 training, stochastic vs nearest rounding on "
                    "gradients (%lld steps from scratch):\n",
                    static_cast<long long>(steps));
        TrainerConfig cfg = trainerPreset(tinyllamaSim());
        struct Row
        {
            const char *name;
            Precision precision;
            Rounding grad_rounding;
        };
        const Row rows[] = {
            {"BF16", Precision::BF16, Rounding::Stochastic},
            {"FP4, SR gradients (paper)", Precision::FP4,
             Rounding::Stochastic},
            {"FP4, RNE gradients", Precision::FP4, Rounding::Nearest},
        };
        TablePrinter t({"config", "final loss (5-step mean)"});
        for (const Row &r : rows) {
            setFp4GradRounding(r.grad_rounding);
            Trainer trainer(cfg);
            const size_t n = static_cast<size_t>(
                trainer.model().registry().numLinear());
            trainer.applyScheme(
                PrecisionScheme::uniform(n, r.precision));
            auto losses = trainer.train(steps);
            t.newRow();
            t.cell(std::string(r.name));
            t.cell(tailMean(losses, 5), 4);
            std::fflush(stdout);
        }
        setFp4GradRounding(Rounding::Stochastic);
        t.print();
    }
    return 0;
}
