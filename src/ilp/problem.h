/**
 * @file
 * The ILP SNIP solves (Sec. 5.2): a multiple-choice knapsack.
 *
 *   minimize   sum_i sum_j q[i][j] x[i][j]
 *   subject to sum_i sum_j e[i][j] x[i][j] >= target          (2)
 *              sum_j x[i][j] = 1  for every item i            (3)
 *              x[i][j] in {0,1}                               (4)
 *
 * With pipeline parallelism (Sec. 5.3) the single constraint (2) is
 * replaced by one constraint per group of consecutive items (5); since
 * groups do not interact, the grouped problem decomposes into
 * independent subproblems, which the solver front-end exploits.
 */
#ifndef SNIP_ILP_PROBLEM_H
#define SNIP_ILP_PROBLEM_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace snip {

/** A contiguous range of items sharing one efficiency constraint. */
struct IlpGroup
{
    int first = 0;   ///< first item index
    int count = 0;   ///< number of items
    double target = 0.0;
};

/** Instance data for the multiple-choice knapsack. */
struct IlpProblem
{
    /** quality[i][j]: quality loss of option j for item i (>= 0). */
    std::vector<std::vector<double>> quality;
    /** efficiency[i][j]: efficiency contribution of option j. */
    std::vector<std::vector<double>> efficiency;
    /** Required total efficiency (ignored when groups are present). */
    double target = 0.0;
    /** Optional per-group constraints; empty means one global one. */
    std::vector<IlpGroup> groups;

    int numItems() const { return static_cast<int>(quality.size()); }

    int
    numOptions(int item) const
    {
        return static_cast<int>(quality[static_cast<size_t>(item)].size());
    }

    /** Sum of max-e options; the constraint is infeasible above this. */
    double maxAchievableEfficiency() const;

    /** panic() on ragged arrays, negative sizes, etc. */
    void validate() const;

    /**
     * Restrict to items [first, first+count) with the given target
     * (used for group decomposition).
     */
    IlpProblem slice(int first, int count, double sub_target) const;
};

/** Result of solving an IlpProblem. */
struct IlpSolution
{
    /** Chosen option index per item (empty if infeasible). */
    std::vector<int> choice;
    double objective = 0.0;
    double achieved_efficiency = 0.0;
    bool feasible = false;
    double solve_seconds = 0.0;
};

/** Recompute objective/efficiency of @p choice on @p problem and check
 *  all constraints: the DP's own final check and the tests' check of
 *  any solver's answer. */
bool verifySolution(const IlpProblem &problem,
                    const std::vector<int> &choice, double *objective_out,
                    double *efficiency_out);

} // namespace snip

#endif // SNIP_ILP_PROBLEM_H
