#include "ilp/dp_solver.h"

#include <algorithm>
#include <array>
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
    const size_t cells = static_cast<size_t>(target_units) + 1;
    // An option's efficiency in whole units, rounded down. Clamping to
    // the target keeps a tiny target's quotient in int range; a larger
    // weight lands on the capped target cell all the same.
    auto units = [&](double e) {
        const double w = std::floor(e / unit + 1e-9);
        return w <= 0.0 ? 0
                        : static_cast<int>(std::min(
                              w, static_cast<double>(target_units)));
    };

    constexpr double kInf = std::numeric_limits<double>::infinity();
    // dp[u]: min cost of the items so far with accumulated units capped
    // at the target.
    std::vector<double> dp(cells, kInf);
    std::vector<double> dp_next(cells);
    dp[0] = 0.0;
    // back[i * cells + u]: the option item i took to land on u;
    // target_from[i]: the cell it left for the capped target cell.
    std::vector<int8_t> back(static_cast<size_t>(m) * cells, -1);
    std::vector<int> target_from(static_cast<size_t>(m), -1);

    std::array<int, 127> w;
    for (int i = 0; i < m; ++i) {
        std::fill(dp_next.begin(), dp_next.end(), kInf);
        const auto &q = problem.quality[static_cast<size_t>(i)];
        const auto &e = problem.efficiency[static_cast<size_t>(i)];
        const int n_opts = problem.numOptions(i);
        SNIP_ASSERT(n_opts <= 127, "too many options for int8 backtrack");
        for (int j = 0; j < n_opts; ++j)
            w[static_cast<size_t>(j)] = units(e[static_cast<size_t>(j)]);
        int8_t *row = back.data() + static_cast<size_t>(i) * cells;
        for (int u = 0; u <= target_units; ++u) {
            const double base = dp[static_cast<size_t>(u)];
            if (base == kInf)
                continue;
            for (int j = 0; j < n_opts; ++j) {
                const int nu = std::min(target_units,
                                        u + w[static_cast<size_t>(j)]);
                const double cost = base + q[static_cast<size_t>(j)];
                if (cost < dp_next[static_cast<size_t>(nu)]) {
                    dp_next[static_cast<size_t>(nu)] = cost;
                    row[nu] = static_cast<int8_t>(j);
                    if (nu == target_units)
                        target_from[static_cast<size_t>(i)] = u;
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
        const int j = back[static_cast<size_t>(i) * cells +
                           static_cast<size_t>(u)];
        SNIP_ASSERT(j >= 0, "broken DP backtrack");
        sol.choice[static_cast<size_t>(i)] = j;
        u = u == target_units
                ? target_from[static_cast<size_t>(i)]
                : u - units(problem.efficiency[static_cast<size_t>(i)]
                                              [static_cast<size_t>(j)]);
    }
    sol.feasible = verifySolution(problem, sol.choice, &sol.objective,
                                  &sol.achieved_efficiency);
    return sol;
}

} // namespace snip
