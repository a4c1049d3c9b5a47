// Property tests of the incremental Eq.-(3) evaluator: after every step
// of random legal adjacent swap sequences (and undos, which re-apply the
// same swap), every term must be bit-identical to the full recomputation
// on the same order, and every cost_after_swap peek must equal the cost
// the following apply_swap produces while changing nothing.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "assign/dfa.h"
#include "exchange/exchange.h"
#include "exchange/incremental_cost.h"
#include "package/circuit_generator.h"
#include "power/pad_ring.h"
#include "stack/stacking.h"
#include "util/rng.h"

namespace fp {
namespace {

Package make_package(int tiers, std::uint64_t seed = 3,
                     int circuit = 1) {
  CircuitSpec spec = CircuitGenerator::table1(circuit);
  spec.tier_count = tiers;
  spec.seed = seed;
  return CircuitGenerator::generate(spec);
}

/// Table-1 circuit 2 with exactly `supplies` supply pads.
Package make_package_with_supplies(int tiers, int supplies) {
  CircuitSpec spec = CircuitGenerator::table1(1);
  spec.tier_count = tiers;
  spec.supply_fraction =
      static_cast<double>(supplies) / static_cast<double>(spec.finger_count);
  return CircuitGenerator::generate(spec);
}

/// Every term, and the Eq.-(3) sum, bit-identical to the full
/// recomputation on the same order.
void check_equivalence(const Package& package,
                       const IncrementalCost& incremental,
                       const IncreasedDensity& baseline,
                       const ExchangeOptimizer& evaluator) {
  const PackageAssignment& current = incremental.assignment();
  const std::vector<NetId> ring = current.ring_order();
  if (!package.netlist().supply_nets().empty()) {
    EXPECT_EQ(incremental.dispersion(),
              supply_dispersion(ring, package.netlist()));
  } else {
    EXPECT_EQ(incremental.dispersion(), 0.0);
  }
  EXPECT_EQ(incremental.increased_density(), baseline.evaluate(current));
  EXPECT_EQ(incremental.omega(),
            omega_zero_bits(ring, package.netlist(),
                            package.netlist().tier_count()));
  EXPECT_EQ(incremental.current(), evaluator.cost(current, baseline));
}

/// cost_after_swap(qi, left), checked to leave every term and the order
/// unchanged.
double peek(const IncrementalCost& incremental, int qi, int left) {
  const double dispersion = incremental.dispersion();
  const int id = incremental.increased_density();
  const int omega = incremental.omega();
  const double cost = incremental.current();
  const std::vector<NetId> ring = incremental.assignment().ring_order();
  const double after = incremental.cost_after_swap(qi, left);
  EXPECT_EQ(incremental.dispersion(), dispersion);
  EXPECT_EQ(incremental.increased_density(), id);
  EXPECT_EQ(incremental.omega(), omega);
  EXPECT_EQ(incremental.current(), cost);
  EXPECT_EQ(incremental.assignment().ring_order(), ring);
  return after;
}

/// Walks `swaps` random legal adjacent swaps (a quarter of the proposals
/// at a quadrant's first or last finger), undoing ~40% of them by
/// applying the same swap again, and checks the full equivalence after
/// every step and every peek against the swap that follows it.
void walk(const Package& package, int swaps, std::uint64_t seed) {
  const PackageAssignment initial = DfaAssigner().assign(package);
  const IncreasedDensity baseline(package, initial);
  const ExchangeOptimizer evaluator(package, ExchangeOptions{});
  IncrementalCost incremental(package, initial, 20.0, 2.0, 1.0);
  check_equivalence(package, incremental, baseline, evaluator);

  Rng rng(seed * 77 + 1);
  int applied = 0;
  int undone = 0;
  int edge_swaps = 0;  // at the first or last finger of a quadrant
  for (int step = 0; applied < swaps && step < 20 * swaps; ++step) {
    const int qi = static_cast<int>(rng.index(
        static_cast<std::size_t>(package.quadrant_count())));
    const Quadrant& q = package.quadrant(qi);
    const auto& order =
        incremental.assignment().quadrants[static_cast<std::size_t>(qi)]
            .order;
    const int last = static_cast<int>(order.size()) - 2;
    int left = static_cast<int>(rng.index(order.size() - 1));
    if (rng.chance(0.25)) left = rng.chance(0.5) ? 0 : last;
    if (q.net_row(order[static_cast<std::size_t>(left)]) ==
        q.net_row(order[static_cast<std::size_t>(left + 1)])) {
      continue;  // illegal move, skip
    }

    const double peeked = peek(incremental, qi, left);
    incremental.apply_swap(qi, left);
    EXPECT_EQ(incremental.current(), peeked);
    ++applied;
    if (left == 0 || left == last) ++edge_swaps;
    check_equivalence(package, incremental, baseline, evaluator);
    if (rng.chance(0.4)) {
      const double restored = peek(incremental, qi, left);
      incremental.apply_swap(qi, left);
      EXPECT_EQ(incremental.current(), restored);
      ++undone;
      check_equivalence(package, incremental, baseline, evaluator);
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first mismatch after step " << step;
      return;
    }
  }
  EXPECT_EQ(applied, swaps);
  EXPECT_GT(undone, swaps / 5);
  EXPECT_GT(edge_swaps, swaps / 50);
}

class IncrementalSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(IncrementalSweep, MatchesFullRecomputation) {
  const auto [tiers, seed] = GetParam();
  walk(make_package(tiers, seed), 5000, seed);
}

INSTANTIATE_TEST_SUITE_P(
    TiersAndSeeds, IncrementalSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(IncrementalCost, OneSupplyPad) {
  const Package package = make_package_with_supplies(1, 1);
  ASSERT_EQ(package.netlist().supply_nets().size(), 1U);
  walk(package, 2000, 11);
}

TEST(IncrementalCost, TwoSupplyPads) {
  const Package package = make_package_with_supplies(1, 2);
  ASSERT_EQ(package.netlist().supply_nets().size(), 2U);
  walk(package, 2000, 12);
}

TEST(IncrementalCost, NoSupplyPadsStacking) {
  const Package package = make_package_with_supplies(2, 0);
  ASSERT_TRUE(package.netlist().supply_nets().empty());
  walk(package, 2000, 13);
}

// ExchangeOptimizer::optimize with the default Eq.-(3) weights and SA
// schedule on Table-1 circuits 1-5 from the DFA start, pinned to the
// results of the set-based evaluator this class replaced: the proxy
// cost drives every accept/reject, so any difference in a returned
// number would change the annealing trajectory.
struct OptimizePin {
  int circuit;
  int tiers;
  double final_cost;
  double best_cost;
  long long proposed;
  long long accepted;
  long long rejected_illegal;
  std::uint64_t ring_digest;  // FNV-1a over the returned ring order
};

constexpr OptimizePin kOptimizePins[] = {
    {0, 1, 0x1.93aaaaaaaaaaap+4, 0x1.9055555555556p+4, 29184, 5750, 6869,
     0x4ed826a583aed893ULL},
    {1, 1, 0x1.b4p+4, 0x1.b4p+4, 29184, 7145, 5655, 0x1a62b93816b24855ULL},
    {2, 1, 0x1.f53b13b13b13ap+4, 0x1.f53b13b13b13ap+4, 29184, 8591, 5273,
     0x135ef9d6b4f81735ULL},
    {3, 1, 0x1.a5ba2e8ba2e8cp+4, 0x1.a5ba2e8ba2e8cp+4, 29184, 10330, 4955,
     0x555b385bb6a37389ULL},
    {4, 1, 0x1.eddb6db6db6dbp+4, 0x1.eddb6db6db6dbp+4, 29184, 9960, 6142,
     0x976a35a0c5a548f1ULL},
    {0, 2, 0x1.2d2aaaaaaaaabp+5, 0x1.2d2aaaaaaaaabp+5, 29184, 11155, 6526,
     0xfbd33e13590e13b3ULL},
    {1, 2, 0x1.488p+5, 0x1.488p+5, 29184, 12661, 6906,
     0xcc4d9ca015964259ULL},
    {2, 2, 0x1.693b13b13b13bp+5, 0x1.693b13b13b13bp+5, 29184, 11686, 7011,
     0x0d38a12698510d51ULL},
    {3, 2, 0x1.0ffa2e8ba2e8cp+6, 0x1.0ffa2e8ba2e8cp+6, 29184, 13300, 6563,
     0x9ee916df6443e74dULL},
    {4, 2, 0x1.cee4924924925p+5, 0x1.cee4924924925p+5, 29184, 13356, 6431,
     0x89ffd42bc506dfcbULL},
};

TEST(ExchangePin, OptimizeMatchesPinnedRuns) {
  for (const OptimizePin& pin : kOptimizePins) {
    SCOPED_TRACE("circuit " + std::to_string(pin.circuit + 1) + ", psi " +
                 std::to_string(pin.tiers));
    CircuitSpec spec = CircuitGenerator::table1(pin.circuit);
    spec.tier_count = pin.tiers;
    const Package package = CircuitGenerator::generate(spec);
    const ExchangeResult result =
        ExchangeOptimizer(package, ExchangeOptions{})
            .optimize(DfaAssigner().assign(package));
    std::uint64_t digest = 1469598103934665603ULL;
    for (const NetId net : result.assignment.ring_order()) {
      digest ^= static_cast<std::uint32_t>(net);
      digest *= 1099511628211ULL;
    }
    EXPECT_EQ(result.anneal.final_cost, pin.final_cost);
    EXPECT_EQ(result.anneal.best_cost, pin.best_cost);
    EXPECT_EQ(result.anneal.proposed, pin.proposed);
    EXPECT_EQ(result.anneal.accepted, pin.accepted);
    EXPECT_EQ(result.anneal.rejected_illegal, pin.rejected_illegal);
    EXPECT_EQ(digest, pin.ring_digest);
  }
}

TEST(IncrementalCost, OutOfRangeSwapThrows) {
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  IncrementalCost incremental(package, initial, 1.0, 1.0, 1.0);
  const double cost = incremental.current();
  const int fingers = static_cast<int>(initial.quadrants[0].order.size());
  for (const auto& [qi, left] :
       {std::pair{-1, 0}, std::pair{package.quadrant_count(), 0},
        std::pair{0, -1}, std::pair{0, fingers - 1}}) {
    EXPECT_THROW((void)incremental.cost_after_swap(qi, left),
                 InvalidArgument);
    EXPECT_THROW(incremental.apply_swap(qi, left), InvalidArgument);
  }
  EXPECT_EQ(incremental.current(), cost);
  EXPECT_EQ(incremental.assignment().ring_order(), initial.ring_order());
}

TEST(IncrementalCost, SameRowSwapRejected) {
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  IncrementalCost incremental(package, initial, 1.0, 1.0, 1.0);
  // Find a same-row adjacent pair in quadrant 0.
  const Quadrant& q = package.quadrant(0);
  const auto& order = initial.quadrants[0].order;
  for (int left = 0; left + 1 < static_cast<int>(order.size()); ++left) {
    if (q.net_row(order[static_cast<std::size_t>(left)]) ==
        q.net_row(order[static_cast<std::size_t>(left + 1)])) {
      EXPECT_THROW((void)incremental.cost_after_swap(0, left),
                   InvalidArgument);
      EXPECT_THROW(incremental.apply_swap(0, left), InvalidArgument);
      return;
    }
  }
  GTEST_SKIP() << "no same-row adjacent pair in this instance";
}

}  // namespace
}  // namespace fp
