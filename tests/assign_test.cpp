// Tests of the three assignment methods. The crown jewels are the
// worked-example locks: the paper publishes the exact IFA and DFA finger
// orders for the Fig.-5 circuit, and this suite requires our
// implementations to reproduce them digit for digit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <list>
#include <numeric>
#include <set>

#include "assign/dfa.h"
#include "assign/ifa.h"
#include "assign/random_assigner.h"
#include "package/circuit_generator.h"
#include "route/legality.h"
#include "util/rng.h"

namespace fp {
namespace {

// ---------------------------------------------------- published orders ----

TEST(IfaWorkedExample, ReproducesPaperOrder) {
  // Paper Section 3.1.1: "The final finger order is
  // 10,1,11,2,3,6,4,5,9,7,8,0."
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantAssignment a = IfaAssigner().assign(q);
  const std::vector<NetId> expected{10, 1, 11, 2, 3, 6, 4, 5, 9, 7, 8, 0};
  EXPECT_EQ(a.order, expected);
}

TEST(DfaWorkedExample, ReproducesPaperOrder) {
  // Paper Section 3.1.2: "The final order of the nets is
  // 10,11,1,2,6,3,4,9,5,7,8,0."
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantAssignment a = DfaAssigner(1).assign(q);
  const std::vector<NetId> expected{10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0};
  EXPECT_EQ(a.order, expected);
}

TEST(DfaWorkedExample, TopLineSlots) {
  // The paper walks the top line in detail: DI = (12-3)/(4+1) = 1.8, and
  // nets 11/6/9 land on F2/F5/F8 (1-based), i.e. slots 1/4/7 (0-based).
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantAssignment a = DfaAssigner(1).assign(q);
  EXPECT_EQ(a.finger_of(11), 1);
  EXPECT_EQ(a.finger_of(6), 4);
  EXPECT_EQ(a.finger_of(9), 7);
}

TEST(DfaWorkedExample, SecondLineSlots) {
  // Line y=2: DI = 1.0; nets 1/3/5/8 land on F3/F6/F9/F11 (1-based).
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantAssignment a = DfaAssigner(1).assign(q);
  EXPECT_EQ(a.finger_of(1), 2);
  EXPECT_EQ(a.finger_of(3), 5);
  EXPECT_EQ(a.finger_of(5), 8);
  EXPECT_EQ(a.finger_of(8), 10);
}

TEST(IfaWorkedExample, InsertionUsesLineAbove) {
  // "net 3 is inserted before net 6" -- their relative order must hold.
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantAssignment a = IfaAssigner().assign(q);
  EXPECT_EQ(a.finger_of(3) + 1, a.finger_of(6));
  EXPECT_LT(a.finger_of(5), a.finger_of(9));
}

// ----------------------------------------------------------- properties ----

struct AssignCase {
  std::string label;
  int table1_index;
  std::uint64_t seed;
};

class AssignerProperties
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AssignerProperties, PermutationAndLegalOnTable1) {
  const auto [circuit, which] = GetParam();
  CircuitSpec spec = CircuitGenerator::table1(circuit);
  const Package package = CircuitGenerator::generate(spec);

  std::unique_ptr<Assigner> assigner;
  switch (which) {
    case 0:
      assigner = std::make_unique<RandomAssigner>(spec.seed);
      break;
    case 1:
      assigner = std::make_unique<IfaAssigner>();
      break;
    default:
      assigner = std::make_unique<DfaAssigner>();
      break;
  }
  const PackageAssignment assignment = assigner->assign(package);
  ASSERT_EQ(static_cast<int>(assignment.quadrants.size()), 4);
  for (int qi = 0; qi < 4; ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const QuadrantAssignment& qa =
        assignment.quadrants[static_cast<std::size_t>(qi)];
    EXPECT_TRUE(is_permutation_of(qa, q)) << assigner->name();
    EXPECT_TRUE(is_monotone_legal(q, qa)) << assigner->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuitsAllMethods, AssignerProperties,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 3)));

class RandomAssignerSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomAssignerSeeds, AlwaysLegalOnFig5) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantAssignment a = RandomAssigner(GetParam()).assign(q);
  EXPECT_TRUE(is_permutation_of(a, q));
  EXPECT_TRUE(is_monotone_legal(q, a));
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, RandomAssignerSeeds,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(RandomAssigner, DifferentSeedsGiveDifferentOrders) {
  const Quadrant q = CircuitGenerator::fig13_quadrant();
  std::set<std::vector<NetId>> orders;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    orders.insert(RandomAssigner(seed).assign(q).order);
  }
  EXPECT_GT(orders.size(), 5u);
}

TEST(RandomAssigner, SameSeedIsDeterministic) {
  const Quadrant q = CircuitGenerator::fig13_quadrant();
  EXPECT_EQ(RandomAssigner(7).assign(q).order,
            RandomAssigner(7).assign(q).order);
}

TEST(RandomAssigner, QuadrantsGetIndependentStreams) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  const PackageAssignment a = RandomAssigner(1).assign(package);
  // With 24 nets per quadrant the four orders are virtually surely
  // different interleavings; compare normalised row-index sequences.
  std::set<std::vector<int>> shapes;
  for (int qi = 0; qi < 4; ++qi) {
    std::vector<int> shape;
    const Quadrant& q = package.quadrant(qi);
    for (const NetId net :
         a.quadrants[static_cast<std::size_t>(qi)].order) {
      shape.push_back(q.net_row(net));
    }
    shapes.insert(shape);
  }
  EXPECT_GT(shapes.size(), 1u);
}

TEST(Ifa, LegalOnSteepTriangle) {
  // Rows shrink by 3: exercises the "line above shorter than column"
  // fallback path.
  const Quadrant q("steep", PackageGeometry{},
                   {{0, 1, 2, 3, 4, 5, 6}, {7, 8, 9, 10}, {11}});
  const QuadrantAssignment a = IfaAssigner().assign(q);
  EXPECT_TRUE(is_permutation_of(a, q));
  EXPECT_TRUE(is_monotone_legal(q, a));
}

TEST(Dfa, LegalOnSteepTriangle) {
  const Quadrant q("steep", PackageGeometry{},
                   {{0, 1, 2, 3, 4, 5, 6}, {7, 8, 9, 10}, {11}});
  const QuadrantAssignment a = DfaAssigner().assign(q);
  EXPECT_TRUE(is_permutation_of(a, q));
  EXPECT_TRUE(is_monotone_legal(q, a));
}

TEST(Dfa, SingleRowFillsLeftToRight) {
  const Quadrant q("flat", PackageGeometry{}, {{4, 2, 7}});
  const QuadrantAssignment a = DfaAssigner().assign(q);
  // One row, remaining == used vias => DI = 0 => sequential fill.
  const std::vector<NetId> expected{4, 2, 7};
  EXPECT_EQ(a.order, expected);
}

TEST(Dfa, CutLineParameterValidated) {
  EXPECT_THROW(DfaAssigner(0), InvalidArgument);
  EXPECT_NO_THROW(DfaAssigner(1));
  EXPECT_NO_THROW(DfaAssigner(3));
}

TEST(Dfa, CutLineParameterChangesSpread) {
  // Larger n shrinks DI, packing nets closer to the left.
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  const QuadrantAssignment n1 = DfaAssigner(1).assign(q);
  const QuadrantAssignment n4 = DfaAssigner(4).assign(q);
  EXPECT_TRUE(is_monotone_legal(q, n4));
  EXPECT_LE(n4.finger_of(11), n1.finger_of(11));
  EXPECT_LE(n4.finger_of(9), n1.finger_of(9));
}

TEST(Ifa, SingleRowKeepsBumpOrder) {
  const Quadrant q("flat", PackageGeometry{}, {{4, 2, 7}});
  const QuadrantAssignment a = IfaAssigner().assign(q);
  const std::vector<NetId> expected{4, 2, 7};
  EXPECT_EQ(a.order, expected);
}

class StressShapes
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StressShapes, AllAssignersLegalOnGeneratedQuadrants) {
  const auto [nets, rows] = GetParam();
  CircuitSpec spec;
  spec.finger_count = nets;
  spec.quadrant_count = 1;
  spec.rows_per_quadrant = rows;
  spec.seed = static_cast<std::uint64_t>(nets * 31 + rows);
  const Package package = CircuitGenerator::generate(spec);
  const Quadrant& q = package.quadrant(0);
  std::vector<std::unique_ptr<Assigner>> assigners;
  assigners.push_back(std::make_unique<RandomAssigner>(3));
  assigners.push_back(std::make_unique<IfaAssigner>());
  assigners.push_back(std::make_unique<DfaAssigner>());
  for (const auto& assigner : assigners) {
    const QuadrantAssignment a = assigner->assign(q);
    EXPECT_TRUE(is_permutation_of(a, q)) << assigner->name();
    EXPECT_TRUE(is_monotone_legal(q, a)) << assigner->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StressShapes,
    ::testing::Combine(::testing::Values(8, 12, 25, 60, 112),
                       ::testing::Values(2, 3, 4)));

// ------------------------------------------------------ reference oracles ----
//
// The straightforward forms of both assigners, kept here only as oracles:
// DFA walks the free slots from the left for every net (O(n * alpha)), IFA
// finds each anchor with a linear scan of a std::list (O(n^2)). The
// production assigners must reproduce their orders exactly.

std::vector<NetId> reference_dfa_order(const Quadrant& quadrant,
                                       int cut_line_n) {
  const int alpha = quadrant.finger_count();
  std::vector<NetId> order(static_cast<std::size_t>(alpha), kInvalidNet);
  std::vector<bool> taken(static_cast<std::size_t>(alpha), false);
  int remaining = quadrant.net_count();
  const int used_vias = quadrant.bumps_in_row(quadrant.top_row());
  for (int r = quadrant.top_row(); r >= 0; --r) {
    const int m = quadrant.bumps_in_row(r);
    const double di = static_cast<double>(remaining - used_vias) /
                      static_cast<double>(quadrant.via_slots_in_row(r) +
                                          cut_line_n);
    for (int x = 1; x <= m; ++x) {
      int k = static_cast<int>(
                  std::floor(static_cast<double>(x) * std::max(di, 0.0))) +
              1;
      const int free = alpha - (quadrant.net_count() - remaining);
      k = std::clamp(k, 1, free - (m - x));
      int slot = -1;
      for (int a = 0; a < alpha; ++a) {
        if (taken[static_cast<std::size_t>(a)]) continue;
        if (--k == 0) {
          slot = a;
          break;
        }
      }
      taken[static_cast<std::size_t>(slot)] = true;
      order[static_cast<std::size_t>(slot)] = quadrant.bump_net(r, x - 1);
      --remaining;
    }
  }
  return order;
}

std::vector<NetId> reference_ifa_order(const Quadrant& quadrant) {
  std::list<NetId> order;
  const int top = quadrant.top_row();
  for (const NetId net : quadrant.row_nets(top)) order.push_back(net);
  for (int r = top - 1; r >= 0; --r) {
    const auto& nets = quadrant.row_nets(r);
    const auto& above = quadrant.row_nets(r + 1);
    const int m = static_cast<int>(nets.size());
    for (int c = 0; c < m; ++c) {
      const NetId net = nets[static_cast<std::size_t>(c)];
      if (c == 0) {
        order.push_front(net);
      } else if (c == m - 1 || c >= static_cast<int>(above.size())) {
        order.push_back(net);
      } else {
        const NetId anchor = above[static_cast<std::size_t>(c)];
        order.insert(std::find(order.begin(), order.end(), anchor), net);
      }
    }
  }
  return {order.begin(), order.end()};
}

struct OracleCase {
  Quadrant quadrant;
  int cut_line_n;
};

/// Seeded random quadrant: 1-6 rows that widen outward by a steep or a
/// shallow step, alpha up to 6144, shuffled net ids from a random base.
OracleCase random_oracle_case(int index) {
  Rng rng(static_cast<std::uint64_t>(index) * 7919 + 17);
  const int rows = 1 + index % 6;
  const bool steep = (index / 6) % 2 == 1;
  const int cut_line_n = 1 + (index / 12) % 4;
  const int alpha =
      index % 40 == 0
          ? 6144
          : std::max(rows, static_cast<int>(std::exp(rng.uniform(
                               std::log(4.0), std::log(1536.0)))));
  const int pairs = rows * (rows - 1) / 2;  // sum of (top_row - r)
  const int top_width =
      steep ? static_cast<int>(rng.uniform_int(1, 3))
            : std::max(1, alpha / rows - static_cast<int>(rng.uniform_int(
                                             0, 2)));
  int step = pairs == 0 ? 0 : std::max(0, (alpha - rows * top_width) / pairs);
  if (!steep) step = std::min(step, 2);
  std::vector<int> widths(static_cast<std::size_t>(rows));
  int total = 0;
  for (int r = 0; r < rows; ++r) {
    widths[static_cast<std::size_t>(r)] = top_width + step * (rows - 1 - r);
    total += widths[static_cast<std::size_t>(r)];
  }
  // Balance to exactly alpha on the outermost row (never below one bump).
  widths[0] = std::max(1, widths[0] + alpha - total);

  std::vector<NetId> ids(static_cast<std::size_t>(
      std::accumulate(widths.begin(), widths.end(), 0)));
  std::iota(ids.begin(), ids.end(),
            static_cast<NetId>(rng.uniform_int(0, 1000)));
  std::shuffle(ids.begin(), ids.end(), rng);
  std::vector<std::vector<NetId>> bump_rows;
  auto next_id = ids.begin();
  for (const int width : widths) {
    bump_rows.emplace_back(next_id, next_id + width);
    next_id += width;
  }
  return {Quadrant("oracle" + std::to_string(index), PackageGeometry{},
                   std::move(bump_rows)),
          cut_line_n};
}

constexpr int kOracleCases = 240;

TEST(DfaOracle, MatchesSlotWalkOnRandomQuadrants) {
  int max_alpha = 0;
  for (int i = 0; i < kOracleCases; ++i) {
    const OracleCase c = random_oracle_case(i);
    SCOPED_TRACE("case " + std::to_string(i) + ": alpha " +
                 std::to_string(c.quadrant.finger_count()) + ", n " +
                 std::to_string(c.cut_line_n));
    max_alpha = std::max(max_alpha, c.quadrant.finger_count());
    EXPECT_EQ(DfaAssigner(c.cut_line_n).assign(c.quadrant).order,
              reference_dfa_order(c.quadrant, c.cut_line_n));
  }
  EXPECT_EQ(max_alpha, 6144);
}

TEST(IfaOracle, MatchesListScanOnRandomQuadrants) {
  for (int i = 0; i < kOracleCases; ++i) {
    const OracleCase c = random_oracle_case(i);
    SCOPED_TRACE("case " + std::to_string(i) + ": alpha " +
                 std::to_string(c.quadrant.finger_count()));
    EXPECT_EQ(IfaAssigner().assign(c.quadrant).order,
              reference_ifa_order(c.quadrant));
  }
}

TEST(AssignOracles, ReproduceTheWorkedExamples) {
  // The oracles themselves are pinned to the paper's Figs. 10 and 12.
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  EXPECT_EQ(reference_ifa_order(q),
            (std::vector<NetId>{10, 1, 11, 2, 3, 6, 4, 5, 9, 7, 8, 0}));
  EXPECT_EQ(reference_dfa_order(q, 1),
            (std::vector<NetId>{10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0}));
}

}  // namespace
}  // namespace fp
