#include "ilp/dp_solver.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace snip {

IlpSolution
solveDp(const IlpProblem &problem, int resolution)
{
    problem.validate();
    SNIP_ASSERT(problem.groups.empty(),
                "decompose groups before the DP solver");
    SNIP_ASSERT(resolution > 0);
    const auto start = std::chrono::steady_clock::now();

    const int m = problem.numItems();
    IlpSolution sol;

    // Trivial target: pick the cheapest option everywhere.
    if (problem.target <= 0.0) {
        sol.feasible = true;
        sol.choice.assign(static_cast<size_t>(m), 0);
        for (int i = 0; i < m; ++i) {
            const auto &q = problem.quality[static_cast<size_t>(i)];
            int best = 0;
            for (int j = 1; j < problem.numOptions(i); ++j) {
                if (q[static_cast<size_t>(j)] <
                    q[static_cast<size_t>(best)])
                    best = j;
            }
            sol.choice[static_cast<size_t>(i)] = best;
        }
        verifySolution(problem, sol.choice, &sol.objective,
                       &sol.achieved_efficiency);
        sol.solve_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        return sol;
    }

    const double unit = problem.target / static_cast<double>(resolution);
    const int target_units = resolution;

    constexpr double kInf = std::numeric_limits<double>::infinity();
    // dp[u] = min cost to accumulate >= u*unit? We track "accumulated
    // units capped at target_units": dp_next[min(u + w, T)].
    std::vector<double> dp(static_cast<size_t>(target_units) + 1, kInf);
    dp[0] = 0.0;
    // Backtracking table: chosen option for (item, units-before).
    std::vector<std::vector<int8_t>> back(
        static_cast<size_t>(m),
        std::vector<int8_t>(static_cast<size_t>(target_units) + 1, -1));
    // Also remember, per item and units-after, the units-before.
    std::vector<std::vector<int>> prev_units(
        static_cast<size_t>(m),
        std::vector<int>(static_cast<size_t>(target_units) + 1, -1));

    std::vector<double> dp_next(static_cast<size_t>(target_units) + 1);
    for (int i = 0; i < m; ++i) {
        std::fill(dp_next.begin(), dp_next.end(), kInf);
        const auto &q = problem.quality[static_cast<size_t>(i)];
        const auto &e = problem.efficiency[static_cast<size_t>(i)];
        const int n_opts = problem.numOptions(i);
        SNIP_ASSERT(n_opts <= 127, "too many options for int8 backtrack");
        for (int u = 0; u <= target_units; ++u) {
            if (dp[static_cast<size_t>(u)] == kInf)
                continue;
            for (int j = 0; j < n_opts; ++j) {
                const int w = static_cast<int>(
                    std::floor(e[static_cast<size_t>(j)] / unit + 1e-9));
                const int nu = std::min(target_units, u + std::max(0, w));
                const double cost = dp[static_cast<size_t>(u)] +
                                    q[static_cast<size_t>(j)];
                if (cost < dp_next[static_cast<size_t>(nu)]) {
                    dp_next[static_cast<size_t>(nu)] = cost;
                    back[static_cast<size_t>(i)]
                        [static_cast<size_t>(nu)] =
                            static_cast<int8_t>(j);
                    prev_units[static_cast<size_t>(i)]
                              [static_cast<size_t>(nu)] = u;
                }
            }
        }
        dp.swap(dp_next);
    }

    sol.solve_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (dp[static_cast<size_t>(target_units)] == kInf) {
        // Flooring every option's efficiency to whole units can leave a
        // target the items meet exactly (every item at its maximum, for
        // a target at the maximum) one unit short. Answer with each
        // item's most-efficient option, cheapest among ties, when it
        // meets the real-valued target.
        std::vector<int> choice(static_cast<size_t>(m), 0);
        for (int i = 0; i < m; ++i) {
            const auto &q = problem.quality[static_cast<size_t>(i)];
            const auto &e = problem.efficiency[static_cast<size_t>(i)];
            int &best = choice[static_cast<size_t>(i)];
            for (int j = 1; j < problem.numOptions(i); ++j) {
                const size_t sj = static_cast<size_t>(j);
                const size_t sb = static_cast<size_t>(best);
                if (e[sj] > e[sb] || (e[sj] == e[sb] && q[sj] < q[sb]))
                    best = j;
            }
        }
        double obj = 0.0, eff = 0.0;
        if (verifySolution(problem, choice, &obj, &eff)) {
            sol.feasible = true;
            sol.choice = std::move(choice);
            sol.objective = obj;
            sol.achieved_efficiency = eff;
        }
        return sol;
    }

    // Backtrack from the full-target cell.
    sol.choice.assign(static_cast<size_t>(m), -1);
    int u = target_units;
    for (int i = m - 1; i >= 0; --i) {
        const int j =
            back[static_cast<size_t>(i)][static_cast<size_t>(u)];
        SNIP_ASSERT(j >= 0, "broken DP backtrack");
        sol.choice[static_cast<size_t>(i)] = j;
        u = prev_units[static_cast<size_t>(i)][static_cast<size_t>(u)];
    }
    sol.feasible = verifySolution(problem, sol.choice, &sol.objective,
                                  &sol.achieved_efficiency);
    return sol;
}

} // namespace snip
