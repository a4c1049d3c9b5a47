// Additional parameterised sweeps across modules: annealer cooling-curve
// recording, SOR relaxation factors, mesh-refinement consistency, via-plan
// pivots, exchange schedules, and supply-fraction generation.
#include <gtest/gtest.h>

#include "assign/dfa.h"
#include "exchange/exchange.h"
#include "obs/metrics.h"
#include "package/circuit_generator.h"
#include "power/pad_ring.h"
#include "power/solver.h"
#include "route/density.h"
#include "route/via_plan.h"

namespace fp {
namespace {

// ------------------------------------------------------ annealer trace ----
// The cooling curve lives in the "<prefix>.cooling" metrics series, one
// (temperature, cost, accepted_moves) row per temperature step; a
// convergence plot thins it itself (bench_sa_trace keeps every 5th row).

TEST(AnnealerTrace, RecordsRequestedSamples) {
  SaSchedule schedule;
  schedule.initial_temperature = 10.0;
  schedule.final_temperature = 0.01;
  schedule.cooling = 0.9;
  schedule.moves_per_temperature = 4;
  schedule.metric_prefix = "sweeps_trace";
  int x = 20;
  int proposed_x = 0;
  obs::MetricsRegistry::global().clear();
  obs::set_metrics_enabled(true);
  const AnnealResult result = Annealer(schedule).run(
      400.0,
      [&](Rng& rng) -> std::optional<double> {
        proposed_x = x + (rng.chance(0.5) ? 1 : -1);
        return static_cast<double>(proposed_x) * proposed_x;
      },
      [&]() { x = proposed_x; });
  obs::set_metrics_enabled(false);
  const std::optional<obs::SeriesSnapshot> cooling =
      obs::MetricsRegistry::global().series("sweeps_trace.cooling");
  obs::MetricsRegistry::global().clear();
  ASSERT_TRUE(cooling.has_value());
  ASSERT_EQ(cooling->rows.size(),
            static_cast<std::size_t>(result.temperature_steps));
  std::vector<std::vector<double>> trace;  // every 3rd temperature step
  for (std::size_t i = 0; i < cooling->rows.size(); i += 3) {
    trace.push_back(cooling->rows[i]);
  }
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.size(),
            static_cast<std::size_t>((result.temperature_steps + 2) / 3));
  // Temperatures strictly decrease along the trace; the first sample is
  // taken at the initial temperature with the initial cost.
  EXPECT_DOUBLE_EQ(trace.front()[0], 10.0);
  EXPECT_DOUBLE_EQ(trace.front()[1], 400.0);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LT(trace[i][0], trace[i - 1][0]);
    EXPECT_GE(trace[i][2], trace[i - 1][2]);
  }
}

TEST(AnnealerTrace, OffByDefault) {
  SaSchedule schedule;
  schedule.initial_temperature = 1.0;
  schedule.final_temperature = 0.5;
  schedule.cooling = 0.9;
  schedule.moves_per_temperature = 1;
  obs::MetricsRegistry::global().clear();
  const AnnealResult result = Annealer(schedule).run(
      1.0, [](Rng&) -> std::optional<double> { return std::nullopt; },
      []() {});
  EXPECT_GT(result.temperature_steps, 0);
  EXPECT_FALSE(obs::MetricsRegistry::global().series("sa.cooling"));
}

// ------------------------------------------------------------ SOR sweep ----

class SorOmegaSweep : public ::testing::TestWithParam<double> {};

TEST_P(SorOmegaSweep, ConvergesToTheSameField) {
  PowerGridSpec spec;
  spec.nodes_per_side = 12;
  spec.total_current_a = 2.0;
  PowerGrid grid(spec);
  grid.set_pads({{0, 0}, {11, 5}});

  SolverOptions reference;
  reference.kind = SolverKind::ConjugateGradient;
  reference.tolerance = 1e-11;
  const double expected = max_ir_drop(grid, solve(grid, reference));

  SolverOptions sor;
  sor.kind = SolverKind::Sor;
  sor.sor_omega = GetParam();
  sor.tolerance = 1e-10;
  const SolveResult result = solve(grid, sor);
  ASSERT_TRUE(result.converged) << "omega " << GetParam();
  EXPECT_NEAR(max_ir_drop(grid, result), expected, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Omegas, SorOmegaSweep,
                         ::testing::Values(0.5, 1.0, 1.3, 1.6, 1.9));

TEST(MeshRefinement, MaxDropIsGridConsistent) {
  // Refining the mesh must not change the physical answer wildly: the
  // same die and pad layout at K and 2K agree within a modest factor.
  double drops[2] = {0.0, 0.0};
  int slot = 0;
  for (const int k : {16, 32}) {
    PowerGridSpec spec;
    spec.nodes_per_side = k;
    spec.total_current_a = 4.0;
    PowerGrid grid(spec);
    std::vector<IPoint> pads;
    for (int i = 0; i < 8; ++i) pads.push_back(ring_slot_node(i * 16, 128, k));
    grid.set_pads(pads);
    drops[slot++] = max_ir_drop(grid, solve(grid));
  }
  EXPECT_GT(drops[1], 0.5 * drops[0]);
  EXPECT_LT(drops[1], 2.0 * drops[0]);
}

// ------------------------------------------------------- via-plan sweep ----

class PivotSweep : public ::testing::TestWithParam<int> {};

TEST_P(PivotSweep, EveryTopRowPivotIsLegalAndConserving) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  QuadrantAssignment a;
  a.order = {10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0};
  QuadrantViaPlan plan = QuadrantViaPlan::bottom_left(q);
  plan.rows[2] = QuadrantViaPlan::suffix_shift(3, GetParam());
  ASSERT_FALSE(validate_via_plan(q, plan).has_value());
  const DensityMap d(q, a, plan);
  EXPECT_EQ(d.total_crossings(), 14);  // conservation, pivot-independent
  EXPECT_GT(d.max_density(), 0);
}

INSTANTIATE_TEST_SUITE_P(TopRowPivots, PivotSweep, ::testing::Range(0, 4));

// -------------------------------------------------- exchange schedules ----

class ScheduleSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(ScheduleSweep, AnyScheduleStaysLegalAndNonWorsening) {
  const auto [cooling, moves] = GetParam();
  CircuitSpec spec = CircuitGenerator::table1(0);
  const Package package = CircuitGenerator::generate(spec);
  const PackageAssignment initial = DfaAssigner().assign(package);

  ExchangeOptions options;
  options.grid_spec.nodes_per_side = 12;
  options.schedule.initial_temperature = 2.0;
  options.schedule.final_temperature = 1e-3;
  options.schedule.cooling = cooling;
  options.schedule.moves_per_temperature = moves;
  const ExchangeResult result =
      ExchangeOptimizer(package, options).optimize(initial);
  EXPECT_LE(result.anneal.final_cost, result.anneal.initial_cost + 1e-9);
  EXPECT_LE(result.ir_cost_after, result.ir_cost_before + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Schedules, ScheduleSweep,
                         ::testing::Combine(::testing::Values(0.8, 0.9,
                                                              0.97),
                                            ::testing::Values(8, 64)));

// ------------------------------------------------- generation fractions ----

class SupplyFractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(SupplyFractionSweep, FractionHonouredWithinRounding) {
  CircuitSpec spec = CircuitGenerator::table1(2);  // 208 nets
  spec.supply_fraction = GetParam();
  const Package package = CircuitGenerator::generate(spec);
  const double actual =
      static_cast<double>(package.netlist().supply_nets().size()) /
      static_cast<double>(package.netlist().size());
  EXPECT_NEAR(actual, GetParam(), 1.0 / 208.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SupplyFractionSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.9, 1.0));

}  // namespace
}  // namespace fp
