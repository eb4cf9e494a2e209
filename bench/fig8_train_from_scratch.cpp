/**
 * @file
 * Figure 8: training-loss curves when training the TinyLlama-class
 * model from scratch under an FP4-FLOP budget (--budget, default 0.75).
 *
 * Expected shape (paper): BF16 and SNIP curves nearly overlap (SNIP a
 * hair above); min-abs/min-rel/random curves destabilize or diverge.
 *
 * Like the paper (whose released checkpoints lack optimizer states), a
 * few BF16 warmup steps precede scheme selection so the weight-
 * divergence statistics see real optimizer moments.
 */
#include "bench_common.h"

using namespace snip;
using namespace snip::bench;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const bool full = args.has("full");
    const int64_t steps = args.getInt("steps", full ? 300 : 120);
    const int64_t scheme_warmup = args.getInt("scheme-warmup", 10);
    const double budget = args.getDouble("budget", 0.75);

    const std::string title =
        strformat("train-from-scratch loss curves @ %g%% FP4", budget * 100);
    banner("Figure 8", title.c_str());
    Setup setup = makeSetup(tinyllamaSim(), scheme_warmup,
                            /*eval_items=*/5);

    const std::vector<std::string> methods = {
        "BF16",    "SNIP",    "min-abs-err", "min-rel-err",
        "random0", "random1", "random2"};

    std::vector<std::vector<double>> curves;
    for (const auto &method : methods) {
        setup.trainer->restore(setup.checkpoint);
        PrecisionScheme scheme =
            method == "BF16"
                ? PrecisionScheme::uniform(
                      static_cast<size_t>(
                          setup.trainer->model().registry().numLinear()),
                      Precision::BF16)
                : makeMethodScheme(*setup.trainer, method, budget);
        RunOutcome out = runScheme(setup, scheme, steps,
                                   /*do_eval=*/false);
        curves.push_back(out.losses);
        std::printf("%-12s final(5-step mean) loss %.4f\n",
                    method.c_str(), tailMean(out.losses, 5));
        std::fflush(stdout);
    }

    // Loss table every 10 steps.
    TablePrinter table([&] {
        std::vector<std::string> h = {"step"};
        for (const auto &m : methods)
            h.push_back(m);
        return h;
    }());
    for (size_t i = 9; i < curves[0].size(); i += 10) {
        table.newRow();
        table.cell(static_cast<int64_t>(i + 1 + scheme_warmup));
        for (const auto &c : curves)
            table.cell(c[i], 4);
    }
    table.print();
    writeFile("fig8_train_from_scratch.csv", table.toCsv());
    std::printf("\n(curves written to fig8_train_from_scratch.csv)\n");
    return 0;
}
