/**
 * @file
 * Step 5 of the SNIP workflow: build and solve the ILP of Sec. 5.2
 * (plus the pipeline-aware variant of Sec. 5.3), and turn the solution
 * into a PrecisionScheme.
 */
#ifndef SNIP_CORE_SNIP_OPTIMIZER_H
#define SNIP_CORE_SNIP_OPTIMIZER_H

#include "core/divergence.h"
#include "ilp/solver.h"

namespace snip {

/** Pipeline constraint configuration (Sec. 5.3). */
struct PipelineConstraint
{
    /** Number of pipeline stages K; 0 disables grouping. */
    int n_stages = 0;
    /** Blocks per stage (must sum to n_blocks); empty =
     *  evenStageSplit(n_blocks, n_stages) (parallel/pipeline.h). */
    std::vector<int> blocks_per_stage;
};

/** Outcome of one scheme-selection solve. */
struct SchemeSelection
{
    PrecisionScheme scheme;
    IlpSolution ilp;
    /** Achieved FP4 FLOP fraction of the selected scheme. */
    double fp4_fraction = 0.0;
};

/**
 * Build the ILP from a cost table: items = layers, options = the
 * table's option list, q = quality, e = efficiency contribution,
 * target = @p target_fp4_fraction. With a PipelineConstraint, one
 * efficiency constraint per stage is emitted, each proportional to the
 * stage's share of the FLOPs (so stages finish together — the paper's
 * balance goal).
 */
IlpProblem buildIlp(const DivergenceTable &table,
                    double target_fp4_fraction,
                    const FlopsModel &flops,
                    const PipelineConstraint &pipeline = {});

/** Solve and convert back to a PrecisionScheme. fatal() if infeasible
 *  (cannot happen for targets in [0,1] with an all-FP4 option). The
 *  IlpSolveOptions parameter is empty and unread (ilp/solver.h). */
SchemeSelection selectScheme(const DivergenceTable &table,
                             double target_fp4_fraction,
                             const FlopsModel &flops,
                             const IlpSolveOptions &solve = {},
                             const PipelineConstraint &pipeline = {});

} // namespace snip

#endif // SNIP_CORE_SNIP_OPTIMIZER_H
