/**
 * @file
 * Dynamic-programming solver for the multiple-choice knapsack.
 *
 * The efficiency axis is discretized into `resolution` units of the
 * target; option efficiencies are rounded *down* and the target is kept
 * whole, so every DP-feasible solution is feasible for the original
 * continuous constraint (conservative). At the default resolution the
 * discretization error is negligible for SNIP-sized instances, and on
 * instances whose efficiencies are exact multiples of target/resolution
 * the DP is exact — the tests cross-validate it there against branch &
 * bound (tests/ilp_reference.h). When the rounded-down table cannot
 * reach the target, the solver answers with every item's most-efficient
 * option if that meets the real-valued target (a target at the maximum
 * achievable efficiency), and reports infeasible otherwise.
 *
 * Each option's weight in units is computed once per item, and the
 * backtrack is one flat items × (resolution + 1) int8 table: a cell
 * below the target is reached only from its units minus the chosen
 * option's weight, so only the capped target cell records its source
 * (one int per item). Among equal costs the first candidate in (source
 * units, option index) order wins.
 */
#ifndef SNIP_ILP_DP_SOLVER_H
#define SNIP_ILP_DP_SOLVER_H

#include "ilp/problem.h"

namespace snip {

/** Default discretization, the one solveIlp() solves at. */
constexpr int kDpResolution = 20000;

/** Solve a single-constraint instance by DP over discretized units. */
IlpSolution solveDp(const IlpProblem &problem,
                    int resolution = kDpResolution);

} // namespace snip

#endif // SNIP_ILP_DP_SOLVER_H
