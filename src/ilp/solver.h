/**
 * @file
 * Solver front-end: group decomposition, the DP solve and the solve
 * cache.
 *
 * Grouped (pipeline-aware, Sec. 5.3) instances decompose into one
 * independent subproblem per group, because each group has its own
 * efficiency constraint and items appear in exactly one group. Every
 * (sub)problem is solved by the DP (ilp/dp_solver.h) at kDpResolution,
 * the library's only solver: it is exact up to a fine discretization
 * and its runtime is linear in the item count. The tests check it
 * against branch & bound and brute force (tests/ilp_reference.h).
 *
 * Reentrancy: solveIlp() is a pure function of its snapshot-style
 * inputs — it reads only the IlpProblem and options it is handed and
 * touches no global or thread-local state — so the async scheme-update
 * worker (src/async/) may solve while the trainer thread runs, or
 * solves another instance. The optional SolveCache is internally
 * synchronized.
 */
#ifndef SNIP_ILP_SOLVER_H
#define SNIP_ILP_SOLVER_H

#include "ilp/dp_solver.h"

namespace snip {

class SolveCache;

/** Options for solveIlp. */
struct IlpSolveOptions
{
    /** Optional persistent solve cache (ilp/solve_cache.h). Hits skip
     *  the search entirely; every hit is re-verified against the live
     *  problem before being trusted. Not owned. */
    SolveCache *cache = nullptr;
};

/** Cache key of one problem: the content hash of the instance folded
 *  with kDpResolution, so a change to the resolution invalidates
 *  persisted entries. */
uint64_t solveCacheKey(const IlpProblem &problem);

/**
 * Solve a (possibly grouped) instance. Statistics are summed across
 * subproblems; the solution is feasible iff every subproblem was.
 * With options.cache set, the whole instance is looked up first and
 * the solution stored back after a fresh solve.
 */
IlpSolution solveIlp(const IlpProblem &problem,
                     const IlpSolveOptions &options = {});

} // namespace snip

#endif // SNIP_ILP_SOLVER_H
