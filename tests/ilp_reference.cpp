#include "ilp_reference.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace snip {

namespace {

/** One hull upgrade step of an item. */
struct Segment
{
    int item;
    int hull_pos;   ///< index into the item's hull (target point)
    double delta_e;
    double delta_q;
    double slope;   ///< delta_q / delta_e
};

/**
 * Pareto + lower-convex-hull filter of one item's options, starting
 * from the min-quality option. Returns option indices in upgrade order
 * (hull[0] is the base).
 */
std::vector<int>
buildHull(const std::vector<double> &q, const std::vector<double> &e)
{
    const int n = static_cast<int>(q.size());
    std::vector<int> order(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j)
        order[static_cast<size_t>(j)] = j;
    // Sort by efficiency ascending; ties by quality ascending.
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (e[static_cast<size_t>(a)] != e[static_cast<size_t>(b)])
            return e[static_cast<size_t>(a)] < e[static_cast<size_t>(b)];
        return q[static_cast<size_t>(a)] < q[static_cast<size_t>(b)];
    });
    // Collapse equal-efficiency options to the cheapest one, so hull
    // segments always have delta_e > 0.
    std::vector<int> dedup;
    for (int k = 0; k < n; ++k) {
        int j = order[static_cast<size_t>(k)];
        if (!dedup.empty() &&
            e[static_cast<size_t>(dedup.back())] ==
                e[static_cast<size_t>(j)])
            continue;
        dedup.push_back(j);
    }
    // Pareto pass: keep strictly improving efficiency at non-decreasing
    // quality floor.
    std::vector<int> pareto;
    double best_q = std::numeric_limits<double>::infinity();
    for (int k = static_cast<int>(dedup.size()) - 1; k >= 0; --k) {
        int j = dedup[static_cast<size_t>(k)];
        if (q[static_cast<size_t>(j)] < best_q) {
            best_q = q[static_cast<size_t>(j)];
            pareto.push_back(j);
        }
    }
    std::reverse(pareto.begin(), pareto.end()); // ascending e, ascending q

    // Lower convex hull: marginal slopes must be increasing.
    std::vector<int> hull;
    for (int j : pareto) {
        while (hull.size() >= 2) {
            int a = hull[hull.size() - 2];
            int b = hull[hull.size() - 1];
            double s1 = (q[static_cast<size_t>(b)] -
                         q[static_cast<size_t>(a)]) /
                        (e[static_cast<size_t>(b)] -
                         e[static_cast<size_t>(a)]);
            double s2 = (q[static_cast<size_t>(j)] -
                         q[static_cast<size_t>(b)]) /
                        (e[static_cast<size_t>(j)] -
                         e[static_cast<size_t>(b)]);
            if (s2 <= s1 + 1e-15)
                hull.pop_back();
            else
                break;
        }
        hull.push_back(j);
    }
    return hull;
}

} // namespace

LpResult
solveLpRelaxation(const IlpProblem &problem, const std::vector<int> &fixed)
{
    const int m = problem.numItems();
    SNIP_ASSERT(problem.groups.empty(),
                "LP relaxation expects a single-constraint problem");
    SNIP_ASSERT(fixed.empty() || fixed.size() == static_cast<size_t>(m));

    LpResult res;
    res.base_choice.assign(static_cast<size_t>(m), 0);

    double base_q = 0.0, base_e = 0.0;
    std::vector<std::vector<int>> hulls(static_cast<size_t>(m));
    std::vector<Segment> segments;

    for (int i = 0; i < m; ++i) {
        const auto &q = problem.quality[static_cast<size_t>(i)];
        const auto &e = problem.efficiency[static_cast<size_t>(i)];
        if (!fixed.empty() && fixed[static_cast<size_t>(i)] >= 0) {
            int j = fixed[static_cast<size_t>(i)];
            res.base_choice[static_cast<size_t>(i)] = j;
            base_q += q[static_cast<size_t>(j)];
            base_e += e[static_cast<size_t>(j)];
            continue;
        }
        auto hull = buildHull(q, e);
        res.base_choice[static_cast<size_t>(i)] = hull[0];
        base_q += q[static_cast<size_t>(hull[0])];
        base_e += e[static_cast<size_t>(hull[0])];
        for (size_t h = 1; h < hull.size(); ++h) {
            Segment s;
            s.item = i;
            s.hull_pos = static_cast<int>(h);
            s.delta_e = e[static_cast<size_t>(hull[h])] -
                        e[static_cast<size_t>(hull[h - 1])];
            s.delta_q = q[static_cast<size_t>(hull[h])] -
                        q[static_cast<size_t>(hull[h - 1])];
            s.slope = s.delta_q / s.delta_e;
            segments.push_back(s);
        }
        hulls[static_cast<size_t>(i)] = std::move(hull);
    }

    double need = problem.target - base_e;
    res.bound = base_q;
    if (need <= 1e-12) {
        res.feasible = true;
        res.rounded_choice = res.base_choice;
        res.rounded_feasible = true;
        return res;
    }

    // Stable sort keeps each item's segments in hull order on slope
    // ties, which the greedy requires.
    std::stable_sort(segments.begin(), segments.end(),
                     [](const Segment &a, const Segment &b) {
                         return a.slope < b.slope;
                     });

    std::vector<int> choice = res.base_choice;
    for (const Segment &s : segments) {
        const auto &hull = hulls[static_cast<size_t>(s.item)];
        if (s.delta_e >= need - 1e-15) {
            // Fractional (or exactly final) segment.
            const double frac = need / s.delta_e;
            res.bound += frac * s.delta_q;
            res.feasible = true;
            res.base_choice = choice;
            if (frac >= 1.0 - 1e-12) {
                // Exactly integral.
                res.base_choice[static_cast<size_t>(s.item)] =
                    hull[static_cast<size_t>(s.hull_pos)];
                res.rounded_choice = res.base_choice;
                res.rounded_feasible = true;
                return res;
            }
            res.frac_item = s.item;
            res.frac_from = hull[static_cast<size_t>(s.hull_pos - 1)];
            res.frac_to = hull[static_cast<size_t>(s.hull_pos)];
            res.frac_weight = frac;
            // Rounding up the fractional segment gives a feasible
            // integral solution.
            res.rounded_choice = choice;
            res.rounded_choice[static_cast<size_t>(s.item)] =
                hull[static_cast<size_t>(s.hull_pos)];
            res.rounded_feasible = true;
            return res;
        }
        need -= s.delta_e;
        res.bound += s.delta_q;
        choice[static_cast<size_t>(s.item)] =
            hulls[static_cast<size_t>(s.item)]
                 [static_cast<size_t>(s.hull_pos)];
    }
    // Ran out of upgrades: infeasible.
    res.feasible = false;
    return res;
}

// ------------------------------------------------------ branch & bound

namespace {

using Clock = std::chrono::steady_clock;

/** Mutable search state shared across the recursion. */
struct SearchState
{
    const IlpProblem *problem;
    BnbLimits limits;
    Clock::time_point start;
    double incumbent_obj = std::numeric_limits<double>::infinity();
    std::vector<int> incumbent;
    int64_t nodes = 0;
    bool hit_limit = false;

    bool
    expired()
    {
        if (nodes >= limits.max_nodes)
            return true;
        // Check the clock sparsely; it is not free.
        if ((nodes & 0x3F) == 0) {
            double s = std::chrono::duration<double>(Clock::now() - start)
                           .count();
            if (s > limits.time_limit_seconds)
                return true;
        }
        return false;
    }
};

void
updateIncumbent(SearchState &st, const std::vector<int> &choice)
{
    double obj, eff;
    if (verifySolution(*st.problem, choice, &obj, &eff) &&
        obj < st.incumbent_obj) {
        st.incumbent_obj = obj;
        st.incumbent = choice;
    }
}

void
branch(SearchState &st, std::vector<int> &fixed)
{
    ++st.nodes;
    if (st.expired()) {
        st.hit_limit = true;
        return;
    }

    LpResult lp = solveLpRelaxation(*st.problem, fixed);
    if (!lp.feasible)
        return; // no completion satisfies the constraint
    if (lp.bound >= st.incumbent_obj - 1e-12)
        return; // cannot improve
    if (lp.rounded_feasible)
        updateIncumbent(st, lp.rounded_choice);
    if (lp.frac_item < 0) {
        // LP optimum is integral: it is optimal for this subtree.
        updateIncumbent(st, lp.base_choice);
        return;
    }

    // Branch on the fractional item, trying the LP's preferred options
    // first for better early incumbents.
    const int item = lp.frac_item;
    const int n_opts = st.problem->numOptions(item);
    std::vector<int> order;
    order.push_back(lp.frac_to);
    order.push_back(lp.frac_from);
    for (int j = 0; j < n_opts; ++j) {
        if (j != lp.frac_to && j != lp.frac_from)
            order.push_back(j);
    }
    for (int j : order) {
        fixed[static_cast<size_t>(item)] = j;
        branch(st, fixed);
        if (st.hit_limit)
            break;
    }
    fixed[static_cast<size_t>(item)] = -1;
}

} // namespace

IlpSolution
solveBranchAndBound(const IlpProblem &problem, const BnbLimits &limits)
{
    problem.validate();
    SNIP_ASSERT(problem.groups.empty(),
                "decompose groups before branch & bound");

    SearchState st;
    st.problem = &problem;
    st.limits = limits;
    st.start = Clock::now();

    std::vector<int> fixed(static_cast<size_t>(problem.numItems()), -1);
    branch(st, fixed);

    IlpSolution sol;
    sol.solve_seconds =
        std::chrono::duration<double>(Clock::now() - st.start).count();
    if (st.incumbent.empty())
        return sol; // infeasible
    sol.feasible = true;
    sol.choice = st.incumbent;
    verifySolution(problem, sol.choice, &sol.objective,
                   &sol.achieved_efficiency);
    return sol;
}

} // namespace snip
