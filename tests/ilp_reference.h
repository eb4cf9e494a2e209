/**
 * @file
 * Exact reference solvers for the multiple-choice knapsack, kept in the
 * test tree as the DP's exactness oracle: the library solves every
 * instance with solveDp (ilp/dp_solver.h), and test_ilp checks it
 * against these on instances the DP's discretization represents
 * exactly.
 *
 * LP relaxation: after removing dominated options and taking the lower
 * convex hull of each item's (efficiency, quality) point set, the LP
 * optimum is obtained greedily by applying hull "upgrade" increments in
 * order of increasing marginal cost dq/de until the efficiency target
 * is met; at most one increment is fractional. Branch & bound uses the
 * bound for pruning and its greedy rounding for the initial incumbent.
 */
#ifndef SNIP_TESTS_ILP_REFERENCE_H
#define SNIP_TESTS_ILP_REFERENCE_H

#include <vector>

#include "ilp/problem.h"

namespace snip {

/** Result of the LP relaxation on a single-constraint problem. */
struct LpResult
{
    bool feasible = false;
    /** Optimal LP objective (lower bound on the ILP). */
    double bound = 0.0;
    /** Integral base choice per item (hull start). */
    std::vector<int> base_choice;
    /**
     * Item with the fractional upgrade, or -1 if the LP solution is
     * integral; frac_from/frac_to are the two options it mixes.
     */
    int frac_item = -1;
    int frac_from = -1;
    int frac_to = -1;
    double frac_weight = 0.0; ///< fraction assigned to frac_to
    /** Greedy-rounded (integral, feasible) choice, if one exists. */
    std::vector<int> rounded_choice;
    bool rounded_feasible = false;
};

/**
 * Solve the LP relaxation of a *single-constraint* problem (groups are
 * handled by decomposition before this is called). @p fixed, when
 * non-empty, pins item i to option fixed[i] (>= 0) — used inside branch
 * & bound; -1 leaves the item free.
 */
LpResult solveLpRelaxation(const IlpProblem &problem,
                           const std::vector<int> &fixed = {});

/** Limits on the search. */
struct BnbLimits
{
    /** Hard wall-clock limit (paper: 30 s per solve, Sec. 6.1). */
    double time_limit_seconds = 30.0;
    /** Node cap as a second backstop. */
    int64_t max_nodes = 10'000'000;
};

/**
 * Solve a single-constraint instance exactly (up to the limits; if a
 * limit is hit, the best incumbent is returned and the solution is
 * still feasible, just possibly not optimal).
 */
IlpSolution solveBranchAndBound(const IlpProblem &problem,
                                const BnbLimits &limits = {});

} // namespace snip

#endif // SNIP_TESTS_ILP_REFERENCE_H
