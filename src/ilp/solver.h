/**
 * @file
 * Solver front-end: validation, group decomposition and the DP solve.
 *
 * Grouped (pipeline-aware, Sec. 5.3) instances decompose into one
 * independent subproblem per group, because each group has its own
 * efficiency constraint and items appear in exactly one group. Every
 * (sub)problem is solved by the DP (ilp/dp_solver.h) at kDpResolution,
 * the library's only solver: it is exact up to a fine discretization
 * and its runtime is linear in the item count. The tests check it
 * against branch & bound and brute force (tests/ilp_reference.h).
 *
 * Reentrancy: solveIlp() is a pure function of the IlpProblem it is
 * handed and touches no global or thread-local state, so the async
 * scheme-update worker (src/async/) may solve while the trainer thread
 * runs, or solves another instance.
 */
#ifndef SNIP_ILP_SOLVER_H
#define SNIP_ILP_SOLVER_H

#include "ilp/dp_solver.h"

namespace snip {

/** Solver knobs: none today, since the DP at kDpResolution is the only
 *  solver. The struct stays because SnipController::Config::solve and
 *  selectScheme()'s parameter carry it, and the repository benchmark
 *  (perfbench/) passes that field to selectScheme(). */
struct IlpSolveOptions
{
};

/**
 * Solve a (possibly grouped) instance. Statistics are summed across
 * subproblems; the solution is feasible iff every subproblem was.
 */
IlpSolution solveIlp(const IlpProblem &problem);

} // namespace snip

#endif // SNIP_ILP_SOLVER_H
