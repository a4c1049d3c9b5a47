// Tests of the congestion estimator. The paper's Fig. 5 publishes exact
// max-density numbers for three finger orders of the same circuit (random
// order -> 4, IFA order -> 2, DFA order -> 2); these are locked here, plus
// conservation and monotonicity properties on generated circuits, and
// identity with the binary-search map the one-pass scan replaced.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "assign/dfa.h"
#include "assign/ifa.h"
#include "assign/random_assigner.h"
#include "density_oracle.h"
#include "package/circuit_generator.h"
#include "route/density.h"
#include "util/rng.h"

namespace fp {
namespace {

QuadrantAssignment order_of(std::vector<NetId> nets) {
  QuadrantAssignment a;
  a.order = std::move(nets);
  return a;
}

// ------------------------------------------------------ worked example ----

TEST(Fig5, RandomOrderHasDensityFour) {
  // Fig. 5(A): order 10,1,2,3,11,6,9,4,5,8,7,0 -> "the maximum density is 4".
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const DensityMap d(q, order_of({10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0}));
  EXPECT_EQ(d.max_density(), 4);
}

TEST(Fig5, DfaOrderHasDensityTwo) {
  // Fig. 5(B): order 10,11,1,2,6,3,4,9,5,7,8,0 -> "the maximum density is 2".
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const DensityMap d(q, order_of({10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0}));
  EXPECT_EQ(d.max_density(), 2);
}

TEST(Fig5, IfaOrderHasDensityTwo) {
  // Fig. 10(B): IFA order 10,1,11,2,3,6,4,5,9,7,8,0 -> "the density is 2".
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const DensityMap d(q, order_of({10, 1, 11, 2, 3, 6, 4, 5, 9, 7, 8, 0}));
  EXPECT_EQ(d.max_density(), 2);
}

TEST(Fig5, FiftyPercentReduction) {
  // Section 2.3: "the maximum density can be reduced 50% when we merely
  // change the finger order."
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const DensityMap random_d(
      q, order_of({10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0}));
  const DensityMap dfa_d(
      q, order_of({10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0}));
  EXPECT_EQ(dfa_d.max_density() * 2, random_d.max_density());
}

TEST(Fig5, RandomOrderHotGapIsLeftmostTopRow) {
  // In Fig. 5(A) nets 10,1,2,3 all cross the top line left of net 11's via.
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const DensityMap d(q, order_of({10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0}));
  EXPECT_EQ(d.gap_density(2, 0), 4);
}

// ---------------------------------------------------------- invariants ----

TEST(Density, CrossingConservation) {
  // Each line y is crossed by exactly the nets bumped on deeper lines.
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const DensityMap d(q, order_of({10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0}));
  // Row 2 (top) crossed by the 9 nets of rows 0 and 1; row 1 by the 5 nets
  // of row 0; row 0 by none.
  const auto row_sum = [&](int r) {
    const auto& v = d.row_densities(r);
    return std::accumulate(v.begin(), v.end(), 0);
  };
  EXPECT_EQ(row_sum(2), 9);
  EXPECT_EQ(row_sum(1), 5);
  EXPECT_EQ(row_sum(0), 0);
  EXPECT_EQ(d.total_crossings(), 14);
}

TEST(Density, CrossingGapLookup) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const DensityMap d(q, order_of({10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0}));
  // Net 10 (bump row 0) crosses rows 2 and 1 in the leftmost gap.
  EXPECT_EQ(d.crossing_gap(10, 2), 0);
  EXPECT_EQ(d.crossing_gap(10, 1), 0);
  // Net 11 terminates on row 2: crosses nothing.
  EXPECT_EQ(d.crossing_gap(11, 2), -1);
  EXPECT_EQ(d.crossing_gap(11, 1), -1);
}

TEST(Density, IllegalOrderRejected) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  EXPECT_THROW(
      DensityMap(q, order_of({10, 1, 6, 2, 3, 11, 4, 5, 9, 7, 8, 0})),
      InvalidArgument);
}

TEST(Density, GapIndexBounds) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const DensityMap d(q, order_of({10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0}));
  EXPECT_THROW((void)d.gap_density(0, -1), InvalidArgument);
  EXPECT_THROW((void)d.gap_density(0, 99), InvalidArgument);
  EXPECT_THROW((void)d.gap_density(9, 0), InvalidArgument);
  EXPECT_THROW((void)d.crossing_gap(10, 9), InvalidArgument);
}

class DensitySweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(DensitySweep, ConservationOnGeneratedCircuits) {
  const auto [circuit, seed] = GetParam();
  CircuitSpec spec = CircuitGenerator::table1(circuit);
  spec.seed = seed;
  const Package package = CircuitGenerator::generate(spec);
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const QuadrantAssignment a = RandomAssigner(seed).assign(q);
    const DensityMap d(q, a);
    // Conservation per row: crossings of row r == nets below row r.
    int below = 0;
    for (int r = 0; r < q.row_count(); ++r) {
      const auto& v = d.row_densities(r);
      EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), below);
      below += q.bumps_in_row(r);
    }
    EXPECT_GE(d.max_density(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1Circuits, DensitySweep,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(Density, BalancedNeverWorseThanNearestAtWindowEnds) {
  // The strategies only differ inside multi-gap windows; Balanced splits
  // them evenly so its max cannot exceed Nearest's on any circuit.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CircuitSpec spec = CircuitGenerator::table1(1);
    spec.seed = seed;
    const Package package = CircuitGenerator::generate(spec);
    for (int qi = 0; qi < package.quadrant_count(); ++qi) {
      const Quadrant& q = package.quadrant(qi);
      const QuadrantAssignment a = RandomAssigner(seed).assign(q);
      const DensityMap balanced(q, a, CrossingStrategy::Balanced);
      const DensityMap nearest(q, a, CrossingStrategy::Nearest);
      EXPECT_LE(balanced.max_density(), nearest.max_density());
      EXPECT_EQ(balanced.total_crossings(), nearest.total_crossings());
    }
  }
}

TEST(Density, DfaBeatsRandomOnAverage) {
  // The headline Table-2 property: congestion-driven assignment reduces
  // max density vs. the random baseline on every Table-1 circuit.
  for (int circuit = 0; circuit < 5; ++circuit) {
    const Package package =
        CircuitGenerator::generate(CircuitGenerator::table1(circuit));
    int random_max = 0;
    int dfa_max = 0;
    for (int qi = 0; qi < package.quadrant_count(); ++qi) {
      const Quadrant& q = package.quadrant(qi);
      random_max = std::max(
          random_max, DensityMap(q, RandomAssigner(42).assign(q)).max_density());
      dfa_max = std::max(
          dfa_max, DensityMap(q, DfaAssigner().assign(q)).max_density());
    }
    EXPECT_LT(dfa_max, random_max) << "circuit " << circuit;
  }
}

TEST(Density, Fig13DfaNotWorseThanIfa) {
  // Fig. 13's claim: on deep (4-row) circuits DFA beats IFA. Our synthetic
  // instance happens to reproduce the paper's exact published numbers
  // (IFA 6, DFA 5), locked here as a regression.
  const Quadrant q = CircuitGenerator::fig13_quadrant();
  const DensityMap ifa_d(q, IfaAssigner().assign(q));
  const DensityMap dfa_d(q, DfaAssigner().assign(q));
  EXPECT_EQ(ifa_d.max_density(), 6);
  EXPECT_EQ(dfa_d.max_density(), 5);
  EXPECT_LE(dfa_d.max_density(), ifa_d.max_density());
}

TEST(Density, SingleRowQuadrantHasZeroDensity) {
  const Quadrant q("flat", PackageGeometry{}, {{0, 1, 2, 3}});
  const DensityMap d(q, order_of({0, 1, 2, 3}));
  EXPECT_EQ(d.max_density(), 0);
  EXPECT_EQ(d.total_crossings(), 0);
}

// ------------------------------------------------------ oracle identity ----
//
// DensityMap against the binary-search map of tests/density_oracle.h on
// random legal orders (plus the DFA and IFA orders), under both crossing
// strategies, the bottom-left via plan and random suffix-shift plans:
// every gap count of every row and the crossing gap of every (net, row)
// must be identical.

/// A random suffix-shift pivot per row; shifted rows open a two-gap window.
QuadrantViaPlan random_plan(const Quadrant& q, Rng& rng) {
  QuadrantViaPlan plan;
  for (int r = 0; r < q.row_count(); ++r) {
    const int m = q.bumps_in_row(r);
    plan.rows.push_back(QuadrantViaPlan::suffix_shift(
        m, static_cast<int>(rng.index(static_cast<std::size_t>(m) + 1))));
  }
  return plan;
}

void expect_matches_oracle(const Quadrant& q, const QuadrantAssignment& a,
                           const QuadrantViaPlan& plan,
                           CrossingStrategy strategy) {
  const DensityMap map(q, a, plan, strategy);
  const oracle::DensityOracle expected =
      oracle::density_map(q, a, plan, strategy);
  ASSERT_EQ(map.row_count(), q.row_count());
  for (int r = 0; r < q.row_count(); ++r) {
    ASSERT_EQ(map.row_densities(r),
              expected.gap_counts[static_cast<std::size_t>(r)])
        << "row " << r;
    for (const NetId net : a.order) {
      ASSERT_EQ(map.crossing_gap(net, r), expected.crossing_gap(net, r))
          << "net " << net << ", row " << r;
    }
  }
}

TEST(DensityOracle, OnePassScanMatchesBinarySearchMap) {
  struct Shape {
    int circuit;
    int fingers;  // 0 = as published
    int rows;     // 0 = as published
  };
  constexpr Shape kShapes[] = {{0, 0, 0},   {1, 0, 0},   {2, 0, 0},
                               {3, 0, 0},   {4, 0, 0},   {1, 160, 6},
                               {4, 384, 8}, {2, 96, 2}};
  Rng plan_rng(2024);
  int cases = 0;
  for (const Shape& shape : kShapes) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      CircuitSpec spec = CircuitGenerator::table1(shape.circuit);
      if (shape.fingers > 0) spec.finger_count = shape.fingers;
      if (shape.rows > 0) spec.rows_per_quadrant = shape.rows;
      spec.seed = seed;
      const Package package = CircuitGenerator::generate(spec);
      for (const Quadrant& q : package.quadrants()) {
        const QuadrantAssignment orders[] = {
            RandomAssigner(seed).assign(q),
            RandomAssigner(seed + 100).assign(q), DfaAssigner().assign(q),
            IfaAssigner().assign(q)};
        for (const QuadrantAssignment& a : orders) {
          const QuadrantViaPlan plans[] = {QuadrantViaPlan::bottom_left(q),
                                           random_plan(q, plan_rng),
                                           random_plan(q, plan_rng)};
          for (const QuadrantViaPlan& plan : plans) {
            for (const CrossingStrategy strategy :
                 {CrossingStrategy::Balanced, CrossingStrategy::Nearest}) {
              SCOPED_TRACE(spec.name + " seed " + std::to_string(seed) +
                           " quadrant " + q.name());
              expect_matches_oracle(q, a, plan, strategy);
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 8 * 3 * 4 * 4 * 3 * 2);
}

}  // namespace
}  // namespace fp
