#include "ilp/problem.h"

#include <algorithm>

#include "util/logging.h"

namespace snip {

double
IlpProblem::maxAchievableEfficiency() const
{
    double total = 0.0;
    for (const auto &opts : efficiency) {
        double best = 0.0;
        for (double e : opts)
            best = std::max(best, e);
        total += best;
    }
    return total;
}

void
IlpProblem::validate() const
{
    SNIP_ASSERT(quality.size() == efficiency.size(),
                "quality/efficiency item counts differ");
    for (int i = 0; i < numItems(); ++i) {
        SNIP_ASSERT(!quality[static_cast<size_t>(i)].empty(),
                    "item with no options");
        SNIP_ASSERT(quality[static_cast<size_t>(i)].size() ==
                    efficiency[static_cast<size_t>(i)].size(),
                    "ragged item ", i);
    }
    int covered = 0;
    for (const auto &g : groups) {
        SNIP_ASSERT(g.first >= 0 && g.count > 0 &&
                    g.first + g.count <= numItems(),
                    "bad group bounds");
        covered += g.count;
    }
    if (!groups.empty())
        SNIP_ASSERT(covered == numItems(),
                    "groups must partition the items");
}

IlpProblem
IlpProblem::slice(int first, int count, double sub_target) const
{
    IlpProblem sub;
    sub.target = sub_target;
    sub.quality.assign(quality.begin() + first,
                       quality.begin() + first + count);
    sub.efficiency.assign(efficiency.begin() + first,
                          efficiency.begin() + first + count);
    return sub;
}

bool
verifySolution(const IlpProblem &problem, const std::vector<int> &choice,
               double *objective_out, double *efficiency_out)
{
    if (choice.size() != static_cast<size_t>(problem.numItems()))
        return false;
    double obj = 0.0, eff = 0.0;
    for (int i = 0; i < problem.numItems(); ++i) {
        int j = choice[static_cast<size_t>(i)];
        if (j < 0 || j >= problem.numOptions(i))
            return false;
        obj += problem.quality[static_cast<size_t>(i)]
                              [static_cast<size_t>(j)];
        eff += problem.efficiency[static_cast<size_t>(i)]
                                 [static_cast<size_t>(j)];
    }
    if (objective_out)
        *objective_out = obj;
    if (efficiency_out)
        *efficiency_out = eff;

    constexpr double kTol = 1e-9;
    if (problem.groups.empty())
        return eff + kTol >= problem.target;
    for (const auto &g : problem.groups) {
        double ge = 0.0;
        for (int i = g.first; i < g.first + g.count; ++i) {
            ge += problem.efficiency[static_cast<size_t>(i)]
                      [static_cast<size_t>(choice[static_cast<size_t>(i)])];
        }
        if (ge + kTol < g.target)
            return false;
    }
    return true;
}

} // namespace snip
