// Tests of the exchange step: the generic annealer, the Eq.-(2) increased-
// density tracker, and the full Fig.-14 optimizer (legality preservation,
// cost improvement, 2-D vs stacking move policies).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "assign/dfa.h"
#include "exchange/exchange.h"
#include "package/circuit_generator.h"
#include "power/pad_ring.h"
#include "route/legality.h"
#include "route/router.h"
#include "stack/stacking.h"

namespace fp {
namespace {

// ------------------------------------------------------------ annealer ----

TEST(Annealer, ScheduleValidation) {
  SaSchedule s;
  s.cooling = 1.0;
  EXPECT_THROW(Annealer{s}, InvalidArgument);
  s = SaSchedule{};
  s.initial_temperature = -1.0;
  EXPECT_THROW(Annealer{s}, InvalidArgument);
  s = SaSchedule{};
  s.final_temperature = 2.0;  // above initial
  EXPECT_THROW(Annealer{s}, InvalidArgument);
  s = SaSchedule{};
  s.moves_per_temperature = 0;
  EXPECT_THROW(Annealer{s}, InvalidArgument);
}

TEST(Annealer, MinimisesQuadratic) {
  // State: integer x in [-50, 50]; cost x^2; moves +/-1. SA must land far
  // below the start.
  SaSchedule schedule;
  schedule.initial_temperature = 50.0;
  schedule.final_temperature = 1e-3;
  schedule.cooling = 0.95;
  schedule.moves_per_temperature = 20;
  int x = 47;
  int proposed_x = 0;
  const Annealer annealer(schedule);
  const AnnealResult result = annealer.run(
      static_cast<double>(x) * x,
      [&](Rng& rng) -> std::optional<double> {
        proposed_x = x + (rng.chance(0.5) ? 1 : -1);
        if (proposed_x < -50 || proposed_x > 50) return std::nullopt;
        return static_cast<double>(proposed_x) * proposed_x;
      },
      [&]() { x = proposed_x; });
  EXPECT_LE(std::abs(x), 5);
  EXPECT_DOUBLE_EQ(result.final_cost, static_cast<double>(x) * x);
  EXPECT_LE(result.best_cost, result.initial_cost);
  EXPECT_GT(result.accepted, 0);
  EXPECT_GT(result.temperature_steps, 0);
}

TEST(Annealer, CountsIllegalMoves) {
  SaSchedule schedule;
  schedule.initial_temperature = 1.0;
  schedule.final_temperature = 0.5;
  schedule.cooling = 0.9;
  schedule.moves_per_temperature = 10;
  const Annealer annealer(schedule);
  const AnnealResult result = annealer.run(
      1.0, [](Rng&) -> std::optional<double> { return std::nullopt; },
      []() { FAIL() << "commit must not run for illegal moves"; });
  EXPECT_EQ(result.rejected_illegal, result.proposed);
  EXPECT_EQ(result.accepted, 0);
  EXPECT_DOUBLE_EQ(result.final_cost, 1.0);
}

TEST(Annealer, DeterministicInSeed) {
  const auto run_once = [] {
    SaSchedule schedule;
    schedule.seed = 99;
    schedule.initial_temperature = 10.0;
    schedule.final_temperature = 0.01;
    schedule.cooling = 0.9;
    schedule.moves_per_temperature = 8;
    int x = 30;
    int proposed_x = 0;
    return Annealer(schedule).run(
        900.0,
        [&](Rng& rng) -> std::optional<double> {
          proposed_x = x + (rng.chance(0.5) ? 1 : -1);
          return static_cast<double>(proposed_x) * proposed_x;
        },
        [&]() { x = proposed_x; });
  };
  const AnnealResult a = run_once();
  const AnnealResult b = run_once();
  EXPECT_DOUBLE_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.accepted, b.accepted);
}

TEST(Annealer, ExpCutoffKeepsMetropolisDecisions) {
  // Scripted uphill steps put x = -delta/T on both sides of the -40 cut-off
  // below which the annealer skips exp. Every decision, and the RNG stream
  // the proposals see, must match the plain `u < exp(x)` loop.
  SaSchedule schedule;
  schedule.seed = 5;
  schedule.initial_temperature = 2.0;
  schedule.final_temperature = 1e-3;
  schedule.cooling = 0.8;
  schedule.moves_per_temperature = 40;
  const std::vector<double> xs{0.5,     -0.1,  -1.0,    -5.0,  -20.0,
                               -39.999, -40.0, -40.001, -41.0, -80.0,
                               -745.0,  -1e6,  -3e-3,   -36.0, -44.0};
  const auto script = [&](Rng& rng, double temperature) {
    return -xs[rng.index(xs.size())] * temperature;  // the step's delta
  };

  // Reference: the plain Metropolis loop over the same schedule.
  std::vector<bool> expected;
  std::vector<std::uint64_t> expected_probes;
  {
    Rng rng(schedule.seed);
    for (double t = schedule.initial_temperature;
         t > schedule.final_temperature; t *= schedule.cooling) {
      for (int i = 0; i < schedule.moves_per_temperature; ++i) {
        expected_probes.push_back(Rng(rng).next());
        const double delta = script(rng, t);
        expected.push_back(delta <= 0.0 ||
                           rng.uniform() < std::exp(-delta / t));
      }
    }
  }

  std::vector<bool> decisions;
  std::vector<std::uint64_t> probes;
  double temperature = schedule.initial_temperature;
  double cost = 0.0;
  double proposed_cost = 0.0;
  const AnnealResult result = Annealer(schedule).run(
      cost,
      [&](Rng& rng) -> std::optional<double> {
        // Mirror the annealer's cooling: one step per
        // moves_per_temperature proposals.
        const auto moves =
            static_cast<std::size_t>(schedule.moves_per_temperature);
        if (!probes.empty() && probes.size() % moves == 0) {
          temperature *= schedule.cooling;
        }
        probes.push_back(Rng(rng).next());
        decisions.push_back(false);  // commit() flips it on accept
        proposed_cost = cost + script(rng, temperature);
        return proposed_cost;
      },
      [&]() {
        decisions.back() = true;
        cost = proposed_cost;
      });
  EXPECT_EQ(probes, expected_probes);
  EXPECT_EQ(decisions, expected);
  const auto accepted = std::count(expected.begin(), expected.end(), true);
  EXPECT_EQ(result.accepted, accepted);
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, static_cast<long>(expected.size()));
}

// --------------------------------------------------- increased density ----

TEST(IncreasedDensity, SectionLoadsOfFig5Dfa) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  QuadrantAssignment dfa;
  dfa.order = {10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0};
  // Top-row nets 11, 6, 9 sit at fingers 1, 4, 7: sections hold
  // {10}, {1,2}, {3,4}, {5,7,8,0} -> loads 1,2,2,4.
  const std::vector<int> expected{1, 2, 2, 4};
  EXPECT_EQ(section_loads(q, dfa), expected);
}

TEST(IncreasedDensity, ZeroAgainstItself) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  const PackageAssignment initial = DfaAssigner().assign(package);
  const IncreasedDensity id(package, initial);
  EXPECT_EQ(id.evaluate(initial), 0);
}

TEST(IncreasedDensity, DetectsCrowdingGrowth) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  Netlist netlist(12);
  std::vector<Quadrant> quadrants{q};
  const Package package("p", std::move(netlist), q.geometry(),
                        std::move(quadrants));
  PackageAssignment initial;
  initial.quadrants.push_back(
      {{10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0}});
  const IncreasedDensity id(package, initial);

  // Swap net 6 (top row, finger 4) with net 3 (finger 5): net 3 moves into
  // the section left of net 6, growing it from 2 to 3.
  PackageAssignment moved;
  moved.quadrants.push_back({{10, 11, 1, 2, 3, 6, 4, 9, 5, 7, 8, 0}});
  EXPECT_EQ(id.evaluate(moved), 1);
}

TEST(IncreasedDensity, SignalOnlySwapInsideSectionIsFree) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  Netlist netlist(12);
  std::vector<Quadrant> quadrants{q};
  const Package package("p", std::move(netlist), q.geometry(),
                        std::move(quadrants));
  PackageAssignment initial;
  initial.quadrants.push_back(
      {{10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0}});
  const IncreasedDensity id(package, initial);
  // Swap nets 1 and 2 (both non-top-row, same section).
  PackageAssignment moved;
  moved.quadrants.push_back({{10, 11, 2, 1, 6, 3, 4, 9, 5, 7, 8, 0}});
  EXPECT_EQ(id.evaluate(moved), 0);
}

// ------------------------------------------------------------ optimizer ----

Package make_package(int tier_count = 1, int circuit = 0) {
  CircuitSpec spec = CircuitGenerator::table1(circuit);
  spec.tier_count = tier_count;
  spec.supply_fraction = 0.25;
  return CircuitGenerator::generate(spec);
}

ExchangeOptions light_options() {
  ExchangeOptions options;
  options.schedule.initial_temperature = 2.0;
  options.schedule.final_temperature = 1e-3;
  options.schedule.cooling = 0.9;
  options.schedule.moves_per_temperature = 32;
  options.grid_spec.nodes_per_side = 16;
  return options;
}

TEST(Exchange, PreservesLegalityAndPermutation2D) {
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const ExchangeOptimizer optimizer(package, light_options());
  const ExchangeResult result = optimizer.optimize(initial);
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const QuadrantAssignment& qa =
        result.assignment.quadrants[static_cast<std::size_t>(qi)];
    EXPECT_TRUE(is_permutation_of(qa, q));
    EXPECT_TRUE(is_monotone_legal(q, qa));
  }
}

TEST(Exchange, PreservesLegalityStacking) {
  const Package package = make_package(4);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const ExchangeOptimizer optimizer(package, light_options());
  const ExchangeResult result = optimizer.optimize(initial);
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    EXPECT_TRUE(is_monotone_legal(
        q, result.assignment.quadrants[static_cast<std::size_t>(qi)]));
  }
}

TEST(Exchange, ImprovesIrProxy2D) {
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const ExchangeOptimizer optimizer(package, light_options());
  const ExchangeResult result = optimizer.optimize(initial);
  EXPECT_LT(result.ir_cost_after, result.ir_cost_before);
  EXPECT_LE(result.anneal.final_cost, result.anneal.initial_cost);
}

TEST(Exchange, ImprovesOmegaWhenStacked) {
  const Package package = make_package(4);
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions options = light_options();
  options.phi = 4.0;  // emphasise bonding wires
  const ExchangeOptimizer optimizer(package, options);
  const ExchangeResult result = optimizer.optimize(initial);
  EXPECT_LT(result.omega_after, result.omega_before);
}

TEST(Exchange, IncreasedDensityStaysBounded) {
  // With a strong rho the Eq.-(2) growth must stay small.
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions options = light_options();
  options.rho = 50.0;
  const ExchangeOptimizer optimizer(package, options);
  const ExchangeResult result = optimizer.optimize(initial);
  EXPECT_LE(result.increased_density, 2);
}

TEST(Exchange, RejectsIllegalInitial) {
  const Package package = make_package(1);
  PackageAssignment initial = DfaAssigner().assign(package);
  // Reverse one quadrant: almost surely illegal.
  std::reverse(initial.quadrants[0].order.begin(),
               initial.quadrants[0].order.end());
  const ExchangeOptimizer optimizer(package, light_options());
  EXPECT_THROW((void)optimizer.optimize(initial), InvalidArgument);
}

TEST(Exchange, Requires2DSupplyNets) {
  CircuitSpec spec = CircuitGenerator::table1(0);
  spec.supply_fraction = 0.0;
  const Package package = CircuitGenerator::generate(spec);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const ExchangeOptimizer optimizer(package, light_options());
  EXPECT_THROW((void)optimizer.optimize(initial), InvalidArgument);
}

TEST(Exchange, NegativeWeightsRejected) {
  const Package package = make_package(1);
  ExchangeOptions options = light_options();
  options.lambda = -1.0;
  EXPECT_THROW(ExchangeOptimizer(package, options), InvalidArgument);
}

TEST(Exchange, TwoDMovesOnlyTouchSupplyPadNeighbourhoods) {
  // In 2-D mode only swaps adjacent to a supply pad may occur; a signal net
  // farther than the annealing could carry it must keep its distance from
  // supply pads bounded. Weak but cheap sanity: the multiset of signal nets
  // per quadrant is unchanged (permutation checked elsewhere) and at least
  // one supply net moved when the proxy improved.
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const ExchangeOptimizer optimizer(package, light_options());
  const ExchangeResult result = optimizer.optimize(initial);
  if (result.ir_cost_after < result.ir_cost_before) {
    bool any_supply_moved = false;
    const auto before_ring = initial.ring_order();
    const auto after_ring = result.assignment.ring_order();
    for (std::size_t i = 0; i < before_ring.size(); ++i) {
      if (before_ring[i] != after_ring[i] &&
          is_supply(package.netlist().net(after_ring[i]).type)) {
        any_supply_moved = true;
        break;
      }
    }
    EXPECT_TRUE(any_supply_moved);
  }
}

TEST(Exchange, CostAccessorMatchesComposition) {
  const Package package = make_package(4);
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions options = light_options();
  options.lambda = 2.0;
  options.rho = 3.0;
  options.phi = 5.0;
  const ExchangeOptimizer optimizer(package, options);
  const IncreasedDensity id(package, initial);
  const double expected =
      2.0 * supply_dispersion(initial.ring_order(), package.netlist()) +
      3.0 * id.evaluate(initial) +
      5.0 * omega_zero_bits(initial.ring_order(), package.netlist(),
                            package.netlist().tier_count());
  EXPECT_NEAR(optimizer.cost(initial, id), expected, 1e-9);
}

TEST(Exchange, ExactIrModeRuns) {
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions options = light_options();
  options.ir_mode = IrCostMode::Exact;
  options.grid_spec.nodes_per_side = 10;
  options.schedule.initial_temperature = 1.0;
  options.schedule.final_temperature = 0.5;
  options.schedule.cooling = 0.8;
  options.schedule.moves_per_temperature = 4;
  const ExchangeOptimizer optimizer(package, options);
  const ExchangeResult result = optimizer.optimize(initial);
  EXPECT_GT(result.ir_cost_before, 0.0);
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    EXPECT_TRUE(is_monotone_legal(
        package.quadrant(qi),
        result.assignment.quadrants[static_cast<std::size_t>(qi)]));
  }
}

}  // namespace
}  // namespace fp
