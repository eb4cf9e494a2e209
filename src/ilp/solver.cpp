#include "ilp/solver.h"

#include <chrono>

#include "ilp/solve_cache.h"
#include "util/logging.h"

namespace snip {

namespace {

IlpSolution
solveUncached(const IlpProblem &problem)
{
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

inline void
mixU64(uint64_t &h, uint64_t v)
{
    // Same FNV-1a step ilpProblemHash uses, continued over the
    // resolution.
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (b * 8)) & 0xFFu;
        h *= 0x100000001B3ull;
    }
}

} // namespace

uint64_t
solveCacheKey(const IlpProblem &problem)
{
    uint64_t h = ilpProblemHash(problem);
    mixU64(h, static_cast<uint64_t>(kDpResolution));
    return h;
}

IlpSolution
solveIlp(const IlpProblem &problem, const IlpSolveOptions &options)
{
    problem.validate();
    if (!options.cache)
        return solveUncached(problem);

    const auto start = std::chrono::steady_clock::now();
    const uint64_t key = solveCacheKey(problem);
    IlpSolution cached;
    if (options.cache->lookup(key, &cached)) {
        // Trust nothing from disk: a collision or stale file must not
        // produce an invalid scheme. Re-verify against the live
        // instance and fall through to a fresh solve on mismatch.
        double obj = 0.0, eff = 0.0;
        const bool valid =
            cached.feasible &&
            verifySolution(problem, cached.choice, &obj, &eff);
        if (valid) {
            cached.objective = obj;
            cached.achieved_efficiency = eff;
            cached.from_cache = true;
            cached.solve_seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            return cached;
        }
        warn("solve cache entry failed verification; re-solving");
    }
    IlpSolution fresh = solveUncached(problem);
    if (fresh.feasible)
        options.cache->insert(key, fresh);
    return fresh;
}

} // namespace snip
