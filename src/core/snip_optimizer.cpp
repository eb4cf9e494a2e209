#include "core/snip_optimizer.h"

#include "parallel/pipeline.h"
#include "util/logging.h"

namespace snip {

IlpProblem
buildIlp(const DivergenceTable &table, double target_fp4_fraction,
         const FlopsModel &flops, const PipelineConstraint &pipeline)
{
    SNIP_ASSERT(target_fp4_fraction >= 0.0 &&
                target_fp4_fraction <= 1.0,
                "target must be in [0,1]");
    const int m = table.numLayers();
    const int n = table.numOptions();

    IlpProblem problem;
    problem.target = target_fp4_fraction;
    problem.quality.resize(static_cast<size_t>(m));
    problem.efficiency.resize(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) {
        auto &qrow = problem.quality[static_cast<size_t>(i)];
        auto &erow = problem.efficiency[static_cast<size_t>(i)];
        qrow.resize(static_cast<size_t>(n));
        erow.resize(static_cast<size_t>(n));
        for (int j = 0; j < n; ++j) {
            const OptionCost &c =
                table.cell[static_cast<size_t>(i)][static_cast<size_t>(j)];
            qrow[static_cast<size_t>(j)] = c.quality;
            erow[static_cast<size_t>(j)] = c.efficiency;
        }
    }

    if (pipeline.n_stages > 1) {
        SNIP_ASSERT(m % kRolesPerBlock == 0);
        const int n_blocks = m / kRolesPerBlock;
        const std::vector<int> per_stage =
            evenStageSplit(n_blocks, pipeline.n_stages);
        int first_block = 0;
        for (int take : per_stage) {
            IlpGroup g;
            g.first = first_block * kRolesPerBlock;
            g.count = take * kRolesPerBlock;
            // Stage target proportional to the stage's FLOP share, so
            // every stage reaches the same *local* FP4 fraction and the
            // pipeline stays balanced (Sec. 5.3).
            double stage_flops = 0.0;
            for (int i = g.first; i < g.first + g.count; ++i)
                stage_flops +=
                    flops.layerFlops()[static_cast<size_t>(i)];
            g.target = target_fp4_fraction * stage_flops /
                       flops.totalFlops();
            problem.groups.push_back(g);
            first_block += take;
        }
    }
    return problem;
}

SchemeSelection
selectScheme(const DivergenceTable &table, double target_fp4_fraction,
             const FlopsModel &flops, const IlpSolveOptions &,
             const PipelineConstraint &pipeline)
{
    IlpProblem problem =
        buildIlp(table, target_fp4_fraction, flops, pipeline);
    SchemeSelection sel;
    sel.ilp = solveIlp(problem);
    if (!sel.ilp.feasible) {
        fatal("SNIP ILP infeasible at target ", target_fp4_fraction,
              " — option set lacks an all-FP4 option?");
    }
    sel.scheme = PrecisionScheme(static_cast<size_t>(table.numLayers()));
    for (int i = 0; i < table.numLayers(); ++i) {
        sel.scheme.layers[static_cast<size_t>(i)] =
            table.options[static_cast<size_t>(
                sel.ilp.choice[static_cast<size_t>(i)])];
    }
    sel.fp4_fraction = flops.fp4Fraction(sel.scheme);
    return sel;
}

} // namespace snip
