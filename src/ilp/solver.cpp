#include "ilp/solver.h"

namespace snip {

IlpSolution
solveIlp(const IlpProblem &problem)
{
    problem.validate();
    if (problem.groups.empty())
        return solveDp(problem, kDpResolution);

    IlpSolution total;
    total.feasible = true;
    total.choice.assign(static_cast<size_t>(problem.numItems()), 0);
    for (const auto &g : problem.groups) {
        IlpProblem sub = problem.slice(g.first, g.count, g.target);
        IlpSolution s = solveDp(sub, kDpResolution);
        total.solve_seconds += s.solve_seconds;
        if (!s.feasible) {
            total.feasible = false;
            total.choice.clear();
            return total;
        }
        for (int i = 0; i < g.count; ++i) {
            total.choice[static_cast<size_t>(g.first + i)] =
                s.choice[static_cast<size_t>(i)];
        }
        total.objective += s.objective;
        total.achieved_efficiency += s.achieved_efficiency;
    }
    return total;
}

} // namespace snip
