/**
 * @file
 * ILP solver tests: the DP's exactness against the reference solvers in
 * ilp_reference.h (LP relaxation properties, branch & bound against
 * brute force, DP/B&B cross-validation sweeps), its golden choices and
 * allocation bound, group decomposition, and the paper's boundary
 * guarantees (E_t = 0 / 1).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "alloc_counter.h"
#include "ilp/solver.h"
#include "ilp_reference.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace snip {
namespace {

/** Exhaustive optimum by enumeration (small instances only). */
double
bruteForce(const IlpProblem &p, std::vector<int> *choice_out = nullptr)
{
    const int m = p.numItems();
    std::vector<int> choice(static_cast<size_t>(m), 0);
    std::vector<int> best_choice;
    double best = std::numeric_limits<double>::infinity();
    std::function<void(int)> rec = [&](int i) {
        if (i == m) {
            double obj, eff;
            if (verifySolution(p, choice, &obj, &eff) && obj < best) {
                best = obj;
                best_choice = choice;
            }
            return;
        }
        for (int j = 0; j < p.numOptions(i); ++j) {
            choice[static_cast<size_t>(i)] = j;
            rec(i + 1);
        }
    };
    rec(0);
    if (choice_out)
        *choice_out = best_choice;
    return best;
}

/** Random instance with efficiencies on a coarse exact grid. */
IlpProblem
randomInstance(Rng &rng, int items, int options, double target)
{
    IlpProblem p;
    p.target = target;
    for (int i = 0; i < items; ++i) {
        std::vector<double> q, e;
        for (int j = 0; j < options; ++j) {
            q.push_back(rng.nextDouble());
            // Multiples of target/100 so the DP (resolution >= 100)
            // is exact and comparable.
            e.push_back(target *
                        static_cast<double>(rng.nextBelow(40)) / 100.0);
        }
        p.quality.push_back(q);
        p.efficiency.push_back(e);
    }
    return p;
}

/** Random instance with efficiencies off the DP grid, target 0. */
IlpProblem
offGridInstance(Rng &rng, int items, int options)
{
    IlpProblem p;
    for (int i = 0; i < items; ++i) {
        std::vector<double> q, e;
        for (int j = 0; j < options; ++j) {
            q.push_back(rng.nextDouble());
            e.push_back(rng.nextDouble() * 0.2);
        }
        p.quality.push_back(q);
        p.efficiency.push_back(e);
    }
    return p;
}

/**
 * Off-grid instance whose options tie often: qualities come from four
 * values and efficiencies from four multiples of 1/(3·items), a step
 * off the DP's unit grid at most targets, so equal costs keep meeting
 * in one cell.
 */
IlpProblem
tieHeavyInstance(Rng &rng, int items, int options)
{
    IlpProblem p;
    const double step = 1.0 / (3.0 * items);
    for (int i = 0; i < items; ++i) {
        std::vector<double> q, e;
        for (int j = 0; j < options; ++j) {
            q.push_back(0.25 * static_cast<double>(rng.nextBelow(4)));
            e.push_back(step * static_cast<double>(rng.nextBelow(4)));
        }
        p.quality.push_back(q);
        p.efficiency.push_back(e);
    }
    return p;
}

TEST(Lp, IntegralWhenTargetIsZero)
{
    Rng rng(1);
    IlpProblem p = randomInstance(rng, 6, 3, 0.5);
    p.target = 0.0;
    LpResult lp = solveLpRelaxation(p);
    EXPECT_TRUE(lp.feasible);
    EXPECT_EQ(lp.frac_item, -1);
    // Bound equals the sum of per-item minima.
    double expect = 0;
    for (const auto &q : p.quality)
        expect += *std::min_element(q.begin(), q.end());
    EXPECT_NEAR(lp.bound, expect, 1e-12);
}

TEST(Lp, InfeasibleWhenTargetExceedsCapacity)
{
    Rng rng(2);
    IlpProblem p = randomInstance(rng, 4, 3, 1.0);
    p.target = p.maxAchievableEfficiency() + 1.0;
    LpResult lp = solveLpRelaxation(p);
    EXPECT_FALSE(lp.feasible);
}

TEST(Lp, BoundIsLowerBoundAndRoundingFeasible)
{
    Rng rng(3);
    for (int trial = 0; trial < 30; ++trial) {
        IlpProblem p = randomInstance(rng, 5, 3, 1.0);
        double opt = bruteForce(p);
        LpResult lp = solveLpRelaxation(p);
        if (!std::isfinite(opt)) {
            EXPECT_FALSE(lp.rounded_feasible);
            continue;
        }
        ASSERT_TRUE(lp.feasible);
        EXPECT_LE(lp.bound, opt + 1e-9);
        ASSERT_TRUE(lp.rounded_feasible);
        double robj, reff;
        EXPECT_TRUE(verifySolution(p, lp.rounded_choice, &robj, &reff));
        EXPECT_GE(robj + 1e-12, lp.bound);
    }
}

TEST(Lp, RespectsFixedAssignments)
{
    Rng rng(4);
    IlpProblem p = randomInstance(rng, 4, 3, 0.5);
    std::vector<int> fixed(4, -1);
    fixed[2] = 1;
    LpResult lp = solveLpRelaxation(p, fixed);
    if (lp.feasible) {
        EXPECT_EQ(lp.base_choice[2], 1);
    }
}

TEST(Bnb, MatchesBruteForceOnRandomInstances)
{
    Rng rng(5);
    for (int trial = 0; trial < 40; ++trial) {
        IlpProblem p = randomInstance(rng, 6, 3, 1.0);
        double opt = bruteForce(p);
        IlpSolution s = solveBranchAndBound(p);
        if (!std::isfinite(opt)) {
            EXPECT_FALSE(s.feasible) << "trial " << trial;
            continue;
        }
        ASSERT_TRUE(s.feasible) << "trial " << trial;
        EXPECT_NEAR(s.objective, opt, 1e-9) << "trial " << trial;
        double obj, eff;
        EXPECT_TRUE(verifySolution(p, s.choice, &obj, &eff));
    }
}

TEST(Dp, MatchesBruteForceOnGridInstances)
{
    Rng rng(6);
    for (int trial = 0; trial < 40; ++trial) {
        IlpProblem p = randomInstance(rng, 6, 3, 1.0);
        double opt = bruteForce(p);
        IlpSolution s = solveDp(p, /*resolution=*/100);
        if (!std::isfinite(opt)) {
            EXPECT_FALSE(s.feasible);
            continue;
        }
        ASSERT_TRUE(s.feasible) << "trial " << trial;
        EXPECT_NEAR(s.objective, opt, 1e-9) << "trial " << trial;
    }
}

TEST(Solvers, CrossValidateOnLargerInstances)
{
    Rng rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        IlpProblem p = randomInstance(rng, 40, 4, 1.0);
        IlpSolution bnb = solveBranchAndBound(p);
        IlpSolution dp = solveDp(p, 100);
        ASSERT_EQ(bnb.feasible, dp.feasible);
        if (bnb.feasible) {
            EXPECT_NEAR(bnb.objective, dp.objective, 1e-9);
        }
    }
}

TEST(Dp, ZeroTargetPicksCheapestOptions)
{
    Rng rng(8);
    IlpProblem p = randomInstance(rng, 5, 3, 0.5);
    p.target = 0.0;
    IlpSolution s = solveDp(p);
    ASSERT_TRUE(s.feasible);
    for (int i = 0; i < 5; ++i) {
        const auto &q = p.quality[static_cast<size_t>(i)];
        EXPECT_EQ(q[static_cast<size_t>(s.choice[static_cast<size_t>(i)])],
                  *std::min_element(q.begin(), q.end()));
    }
}

TEST(Dp, SolutionAlwaysSatisfiesContinuousConstraint)
{
    // Floor-rounding makes the DP conservative: any returned solution
    // meets the real-valued constraint.
    Rng rng(9);
    for (int trial = 0; trial < 20; ++trial) {
        IlpProblem p = offGridInstance(rng, 10, 3);
        p.target = 0.7;
        IlpSolution s = solveDp(p, 1000);
        if (s.feasible) {
            EXPECT_GE(s.achieved_efficiency + 1e-9, p.target);
        }
    }
}

TEST(Dp, TargetAtMaximumTakesMostEfficientOptions)
{
    // Off-grid efficiencies each lose a fraction of a unit to the
    // floor, so the DP table alone falls short of a target equal to
    // the sum of the maxima, which every item's most-efficient option
    // meets exactly. Item 0 ties two maximal options; the cheaper wins.
    Rng rng(14);
    IlpProblem p = offGridInstance(rng, 154, 4);
    p.efficiency[0] = {0.01, 0.123456789, 0.05, 0.123456789};
    p.quality[0] = {0.1, 0.9, 0.2, 0.4};
    p.target = p.maxAchievableEfficiency();
    for (IlpSolution s : {solveDp(p), solveIlp(p)}) {
        ASSERT_TRUE(s.feasible);
        EXPECT_EQ(s.choice[0], 3);
        for (size_t i = 1; i < s.choice.size(); ++i) {
            const auto &e = p.efficiency[i];
            EXPECT_EQ(e[static_cast<size_t>(s.choice[i])],
                      *std::max_element(e.begin(), e.end()));
        }
        EXPECT_GE(s.achieved_efficiency + 1e-9, p.target);
    }
}

TEST(Dp, TinyTargetKeepsTheOptimum)
{
    // At a target this far below the options' efficiencies a weight in
    // units exceeds int range; it must count as reaching the target,
    // not wrap to nothing and leave only the all-maximum fallback.
    IlpProblem p;
    p.quality = {{0.0, 1.0}, {0.0, 1.0}};
    p.efficiency = {{0.0, 0.5}, {0.0, 0.5}};
    p.target = 1e-9;
    const IlpSolution s = solveDp(p);
    ASSERT_TRUE(s.feasible);
    EXPECT_EQ(s.objective, 1.0);
}

TEST(Dp, TargetAboveMaximumIsInfeasible)
{
    Rng rng(14);
    IlpProblem p = offGridInstance(rng, 154, 4);
    p.target = p.maxAchievableEfficiency() * (1.0 + 1e-6);
    for (IlpSolution s : {solveDp(p), solveIlp(p)}) {
        EXPECT_FALSE(s.feasible);
        EXPECT_TRUE(s.choice.empty());
    }
}

TEST(Dp, GoldenChoicesOnTieHeavyInstances)
{
    // Pins every choice the DP makes, ties and the at-maximum fallback
    // included: a rewrite of the table or the backtrack that picks a
    // different optimum among equals moves this CRC.
    Rng rng(2024);
    uint32_t crc = 0;
    int solves = 0;
    for (const auto &[items, options] :
         {std::pair{154, 4}, std::pair{40, 3}, std::pair{7, 8}}) {
        for (int rep = 0; rep < 2; ++rep) {
            IlpProblem p = tieHeavyInstance(rng, items, options);
            const double max = p.maxAchievableEfficiency();
            for (double target :
                 {0.0, 0.5, 0.97 * max, max, 1.0001 * max}) {
                p.target = target;
                const IlpSolution s = solveDp(p);
                const uint32_t n = static_cast<uint32_t>(s.choice.size());
                crc = crc32(&n, sizeof(n), crc);
                crc = crc32(s.choice.data(),
                            s.choice.size() * sizeof(int), crc);
                ++solves;
            }
        }
    }
    EXPECT_EQ(solves, 30);
    EXPECT_EQ(crc, 0x8d2bfa14u);
}

TEST(Dp, AllocationCountDoesNotGrowWithItems)
{
    // One flat backtrack table plus per-resolution scratch: the number
    // of heap blocks a solve takes is the same at any item count.
    Rng rng(16);
    auto allocsFor = [&](int items) {
        IlpProblem p = tieHeavyInstance(rng, items, 4);
        p.target = 0.5;
        return allocDelta([&] {
            const IlpSolution s = solveDp(p);
            EXPECT_TRUE(s.feasible);
        });
    };
    EXPECT_EQ(allocsFor(40), allocsFor(154));
}

TEST(Groups, DecomposesAndMeetsEveryGroupTarget)
{
    Rng rng(10);
    IlpProblem p = randomInstance(rng, 12, 3, 1.0);
    p.groups = {{0, 4, 0.3}, {4, 4, 0.2}, {8, 4, 0.4}};
    IlpSolution s = solveIlp(p);
    ASSERT_TRUE(s.feasible);
    for (const auto &g : p.groups) {
        double ge = 0;
        for (int i = g.first; i < g.first + g.count; ++i)
            ge += p.efficiency[static_cast<size_t>(i)][static_cast<size_t>(
                s.choice[static_cast<size_t>(i)])];
        EXPECT_GE(ge + 1e-9, g.target);
    }
}

TEST(Groups, ObjectiveEqualsSumOfGroupOptima)
{
    Rng rng(11);
    IlpProblem p = randomInstance(rng, 8, 3, 1.0);
    p.groups = {{0, 4, 0.25}, {4, 4, 0.25}};
    IlpSolution s = solveIlp(p);
    // Solve the slices independently and compare.
    double sum = 0;
    for (const auto &g : p.groups) {
        IlpSolution sub = solveDp(p.slice(g.first, g.count, g.target));
        ASSERT_TRUE(sub.feasible);
        sum += sub.objective;
    }
    ASSERT_TRUE(s.feasible);
    EXPECT_NEAR(s.objective, sum, 1e-9);
}

TEST(Groups, InfeasibleGroupMakesWholeProblemInfeasible)
{
    Rng rng(12);
    IlpProblem p = randomInstance(rng, 8, 3, 1.0);
    p.groups = {{0, 4, 1e9}, {4, 4, 0.1}};
    IlpSolution s = solveIlp(p);
    EXPECT_FALSE(s.feasible);
    EXPECT_TRUE(s.choice.empty());
}

TEST(Verify, RejectsBadChoices)
{
    Rng rng(13);
    IlpProblem p = randomInstance(rng, 3, 2, 0.0);
    EXPECT_FALSE(verifySolution(p, {0, 1}, nullptr, nullptr)); // short
    EXPECT_FALSE(verifySolution(p, {0, 1, 5}, nullptr, nullptr));
    EXPECT_TRUE(verifySolution(p, {0, 1, 0}, nullptr, nullptr));
}

TEST(Bnb, RandomPropertySweepAgainstDp)
{
    // Property: on grid instances both exact solvers agree for every
    // target in a sweep.
    Rng rng(14);
    IlpProblem p = randomInstance(rng, 20, 4, 1.0);
    for (double target :
         {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
        IlpProblem pt = p;
        pt.target = target;
        // Rescale efficiencies onto the new target's DP grid: use
        // resolution aligned with the 1.0-grid (multiples of 0.01).
        IlpSolution a = solveBranchAndBound(pt);
        IlpSolution dp = solveDp(pt, static_cast<int>(
                                         std::lround(target / 0.01)) ==
                                             0
                                         ? 100
                                         : static_cast<int>(std::lround(
                                               target / 0.01)));
        ASSERT_EQ(a.feasible, dp.feasible) << "target " << target;
        if (a.feasible) {
            EXPECT_NEAR(a.objective, dp.objective, 1e-9)
                << "target " << target;
        }
    }
}

} // namespace
} // namespace snip
