// Tests of the power-grid IR-drop model: construction, all three solvers,
// physical sanity (maximum principle, symmetry, monotonicity in pads), and
// error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "exec/exec.h"
#include "power/power_grid.h"
#include "power/solver.h"

namespace fp {
namespace {

PowerGridSpec small_spec() {
  PowerGridSpec spec;
  spec.nodes_per_side = 16;
  spec.vdd = 1.0;
  spec.sheet_res_x = 0.05;
  spec.sheet_res_y = 0.05;
  spec.total_current_a = 4.0;
  return spec;
}

TEST(PowerGrid, ConstructionValidation) {
  PowerGridSpec spec = small_spec();
  spec.nodes_per_side = 1;
  EXPECT_THROW(PowerGrid{spec}, InvalidArgument);
  spec = small_spec();
  spec.sheet_res_x = 0.0;
  EXPECT_THROW(PowerGrid{spec}, InvalidArgument);
  spec = small_spec();
  spec.total_current_a = -1.0;
  EXPECT_THROW(PowerGrid{spec}, InvalidArgument);
  spec = small_spec();
  spec.vdd = 0.0;
  EXPECT_THROW(PowerGrid{spec}, InvalidArgument);
}

TEST(PowerGrid, UniformCurrentSumsToTotal) {
  const PowerGrid grid(small_spec());
  double total = 0.0;
  for (int y = 0; y < grid.k(); ++y) {
    for (int x = 0; x < grid.k(); ++x) total += grid.node_current(x, y);
  }
  EXPECT_NEAR(total, 4.0, 1e-9);
}

TEST(PowerGrid, HotspotScalesRegion) {
  PowerGrid grid(small_spec());
  grid.add_hotspot({0.0, 0.0, 0.5, 0.5}, 3.0);
  const double base = 4.0 / (16.0 * 16.0);
  EXPECT_NEAR(grid.node_current(2, 2), 3.0 * base, 1e-12);
  EXPECT_NEAR(grid.node_current(12, 12), base, 1e-12);
}

TEST(PowerGrid, HotspotsCompose) {
  PowerGrid grid(small_spec());
  grid.add_hotspot({0.0, 0.0, 1.0, 1.0}, 2.0);
  grid.add_hotspot({0.0, 0.0, 1.0, 1.0}, 2.0);
  EXPECT_NEAR(grid.node_current(5, 5), 4.0 * 4.0 / 256.0, 1e-12);
}

TEST(PowerGrid, PadValidation) {
  PowerGrid grid(small_spec());
  EXPECT_THROW(grid.set_pads({{16, 0}}), InvalidArgument);
  EXPECT_THROW(grid.set_pads({{0, -1}}), InvalidArgument);
  grid.set_pads({{0, 0}, {0, 0}, {5, 5}});
  EXPECT_EQ(grid.pads().size(), 2u);  // duplicates collapse
  EXPECT_TRUE(grid.is_pad(0, 0));
  EXPECT_TRUE(grid.is_pad(5, 5));
  EXPECT_FALSE(grid.is_pad(1, 1));
}

TEST(Solver, NoPadsIsSingular) {
  const PowerGrid grid(small_spec());
  EXPECT_THROW((void)solve(grid), InvalidArgument);
}

TEST(Solver, OptionValidation) {
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}});
  SolverOptions options;
  options.tolerance = 0.0;
  EXPECT_THROW((void)solve(grid, options), InvalidArgument);
  options = SolverOptions{};
  options.max_iterations = 0;
  EXPECT_THROW((void)solve(grid, options), InvalidArgument);
  options = SolverOptions{};
  options.kind = SolverKind::Sor;
  options.sor_omega = 2.5;
  EXPECT_THROW((void)solve(grid, options), InvalidArgument);
}

TEST(Solver, ZeroCurrentGivesFlatVdd) {
  PowerGridSpec spec = small_spec();
  spec.total_current_a = 0.0;
  PowerGrid grid(spec);
  grid.set_pads({{0, 0}});
  const SolveResult result = solve(grid);
  EXPECT_TRUE(result.converged);
  for (const double v : result.voltage.data()) EXPECT_NEAR(v, 1.0, 1e-9);
  EXPECT_NEAR(max_ir_drop(grid, result), 0.0, 1e-9);
}

constexpr SolverKind kAllKinds[] = {SolverKind::Sor,
                                     SolverKind::ConjugateGradient,
                                     SolverKind::Multigrid};

TEST(Solver, MaximumPrinciple) {
  // With loads everywhere, every free node sits strictly below Vdd and
  // above some positive floor; pads sit exactly at Vdd. Every back-end.
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}, {15, 15}});
  for (const SolverKind kind : kAllKinds) {
    SolverOptions options;
    options.kind = kind;
    const SolveResult result = solve(grid, options);
    ASSERT_TRUE(result.converged) << to_string(kind);
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        const double v = result.voltage(static_cast<std::size_t>(x),
                                        static_cast<std::size_t>(y));
        if (grid.is_pad(x, y)) {
          EXPECT_DOUBLE_EQ(v, 1.0) << to_string(kind);
        } else {
          EXPECT_LT(v, 1.0) << to_string(kind);
          EXPECT_GT(v, 0.0) << to_string(kind);
        }
      }
    }
  }
}

TEST(Solver, WarmStartAgreesWithColdEveryKind) {
  // A warm re-solve after a pad move reaches the same field as a cold
  // solve, within the tolerance, on every back-end.
  PowerGrid before(small_spec());
  before.add_hotspot({0.1, 0.6, 0.5, 0.9}, 4.0);
  before.set_pads({{0, 0}, {15, 7}, {3, 15}});
  PowerGrid after = before;
  after.set_pads({{0, 1}, {15, 7}, {3, 15}});
  for (const SolverKind kind : kAllKinds) {
    SolverOptions options;
    options.kind = kind;
    options.tolerance = 1e-10;
    const SolveResult seed = solve(before, options);
    const SolveResult cold = solve(after, options);
    options.warm_start = &seed.voltage;
    const SolveResult warm = solve(after, options);
    ASSERT_TRUE(cold.converged) << to_string(kind);
    ASSERT_TRUE(warm.converged) << to_string(kind);
    EXPECT_TRUE(warm.warm_started) << to_string(kind);
    EXPECT_FALSE(cold.warm_started) << to_string(kind);
    for (std::size_t i = 0; i < warm.voltage.data().size(); ++i) {
      EXPECT_NEAR(warm.voltage.data()[i], cold.voltage.data()[i], 1e-6)
          << to_string(kind) << " node " << i;
    }
  }
}

TEST(Solver, SymmetricPadsGiveSymmetricField) {
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}, {15, 0}, {0, 15}, {15, 15}});
  const SolveResult result = solve(grid);
  ASSERT_TRUE(result.converged);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      const double v = result.voltage(static_cast<std::size_t>(x),
                                      static_cast<std::size_t>(y));
      const double mirrored =
          result.voltage(static_cast<std::size_t>(15 - x),
                         static_cast<std::size_t>(y));
      EXPECT_NEAR(v, mirrored, 1e-6);
      const double flipped =
          result.voltage(static_cast<std::size_t>(x),
                         static_cast<std::size_t>(15 - y));
      EXPECT_NEAR(v, flipped, 1e-6);
    }
  }
}

TEST(Solver, MorePadsNeverHurt) {
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}});
  const double one_pad = max_ir_drop(grid, solve(grid));
  grid.set_pads({{0, 0}, {15, 15}});
  const double two_pads = max_ir_drop(grid, solve(grid));
  grid.set_pads({{0, 0}, {15, 15}, {0, 15}, {15, 0}});
  const double four_pads = max_ir_drop(grid, solve(grid));
  EXPECT_LT(two_pads, one_pad);
  EXPECT_LT(four_pads, two_pads);
  EXPECT_GT(four_pads, 0.0);
}

TEST(Solver, CurrentScalesDropLinearly) {
  PowerGridSpec spec = small_spec();
  PowerGrid a(spec);
  a.set_pads({{0, 0}, {15, 15}});
  const double drop_a = max_ir_drop(a, solve(a));
  spec.total_current_a *= 2.0;
  PowerGrid b(spec);
  b.set_pads({{0, 0}, {15, 15}});
  const double drop_b = max_ir_drop(b, solve(b));
  EXPECT_NEAR(drop_b, 2.0 * drop_a, 1e-6 * drop_b);
}

TEST(Solver, HotspotRaisesLocalDrop) {
  PowerGridSpec spec = small_spec();
  PowerGrid uniform(spec);
  uniform.set_pads({{0, 0}, {15, 0}, {0, 15}, {15, 15}});
  const SolveResult base = solve(uniform);

  PowerGrid hot(spec);
  hot.add_hotspot({0.55, 0.55, 0.95, 0.95}, 6.0);
  hot.set_pads({{0, 0}, {15, 0}, {0, 15}, {15, 15}});
  const SolveResult heated = solve(hot);
  EXPECT_GT(max_ir_drop(hot, heated), max_ir_drop(uniform, base));
  // The hottest node moves toward the hotspot quadrant.
  const double center_base = base.voltage(12, 12);
  const double center_hot = heated.voltage(12, 12);
  EXPECT_LT(center_hot, center_base);
}

TEST(Solver, MeanBelowMax) {
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}, {8, 15}});
  const SolveResult result = solve(grid);
  EXPECT_LT(mean_ir_drop(grid, result), max_ir_drop(grid, result));
  EXPECT_GT(mean_ir_drop(grid, result), 0.0);
}

TEST(Solver, AllPadsGridIsFlat) {
  PowerGridSpec spec = small_spec();
  spec.nodes_per_side = 3;
  PowerGrid grid(spec);
  std::vector<IPoint> all;
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) all.push_back({x, y});
  }
  grid.set_pads(all);
  const SolveResult result = solve(grid);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(max_ir_drop(grid, result), 0.0, 1e-12);
}

// All three back-ends agree on the same field.
class SolverAgreement : public ::testing::TestWithParam<SolverKind> {};

TEST_P(SolverAgreement, MatchesConjugateGradient) {
  PowerGrid grid(small_spec());
  grid.add_hotspot({0.1, 0.6, 0.5, 0.9}, 4.0);
  grid.set_pads({{0, 0}, {15, 7}, {3, 15}});

  SolverOptions reference;
  reference.kind = SolverKind::ConjugateGradient;
  reference.tolerance = 1e-11;
  const SolveResult expected = solve(grid, reference);
  ASSERT_TRUE(expected.converged);

  SolverOptions options;
  options.kind = GetParam();
  options.tolerance = 1e-10;
  const SolveResult actual = solve(grid, options);
  ASSERT_TRUE(actual.converged) << "kind " << static_cast<int>(GetParam());
  for (std::size_t i = 0; i < actual.voltage.data().size(); ++i) {
    EXPECT_NEAR(actual.voltage.data()[i], expected.voltage.data()[i], 1e-6);
  }
  EXPECT_NEAR(max_ir_drop(grid, actual), max_ir_drop(grid, expected), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SolverAgreement,
                         ::testing::ValuesIn(kAllKinds));

TEST(Solver, MultigridCycleCountScalesMildly) {
  // The V-cycle count must grow far slower than the Krylov iteration
  // count as the mesh refines (the point of the multigrid back-end).
  SolverOptions mg;
  mg.kind = SolverKind::Multigrid;
  mg.tolerance = 1e-9;
  int cycles16 = 0;
  int cycles48 = 0;
  for (const int k : {16, 48}) {
    PowerGridSpec spec = small_spec();
    spec.nodes_per_side = k;
    PowerGrid grid(spec);
    grid.set_pads({{0, 0}, {k - 1, k - 1}});
    const SolveResult result = solve(grid, mg);
    ASSERT_TRUE(result.converged) << "k " << k;
    (k == 16 ? cycles16 : cycles48) = result.iterations;
  }
  EXPECT_LE(cycles48, cycles16 * 4);
}

TEST(Solver, CgConvergesFasterThanSor) {
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}});
  SolverOptions cg;
  cg.kind = SolverKind::ConjugateGradient;
  SolverOptions sor;
  sor.kind = SolverKind::Sor;
  const SolveResult cg_result = solve(grid, cg);
  const SolveResult sor_result = solve(grid, sor);
  ASSERT_TRUE(cg_result.converged);
  ASSERT_TRUE(sor_result.converged);
  EXPECT_LT(cg_result.iterations, sor_result.iterations);
}

TEST(Solver, ReportsNonConvergenceHonestly) {
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}});
  SolverOptions options;
  options.kind = SolverKind::Sor;
  options.max_iterations = 2;
  options.tolerance = 1e-12;
  const SolveResult result = solve(grid, options);
  EXPECT_FALSE(result.converged);
  EXPECT_GT(result.relative_residual, 1e-12);
}

// The exec-layer contract (docs/PARALLELISM.md): every solver backend
// returns a bit-identical field at threads = 1, 2 and 8. The 96 x 96
// mesh makes the reductions span multiple canonical chunks, so this
// genuinely exercises the chunked combine, not the single-chunk escape.
TEST(SolverParallel, BitIdenticalAcrossThreadCounts) {
  PowerGridSpec spec = small_spec();
  spec.nodes_per_side = 96;
  PowerGrid grid(spec);
  grid.set_pads({{0, 0}, {95, 40}, {20, 95}, {60, 3}});
  const int saved_threads = exec::default_threads();
  for (const SolverKind kind : kAllKinds) {
    SolverOptions options;
    options.kind = kind;
    options.tolerance = 1e-8;
    exec::set_default_threads(1);
    const SolveResult expected = solve(grid, options);
    for (const int threads : {2, 8}) {
      exec::set_default_threads(threads);
      const SolveResult actual = solve(grid, options);
      EXPECT_EQ(actual.iterations, expected.iterations)
          << to_string(kind) << " threads=" << threads;
      EXPECT_EQ(actual.relative_residual, expected.relative_residual)
          << to_string(kind) << " threads=" << threads;
      ASSERT_EQ(actual.voltage.data().size(), expected.voltage.data().size());
      for (std::size_t i = 0; i < actual.voltage.data().size(); ++i) {
        ASSERT_EQ(actual.voltage.data()[i], expected.voltage.data()[i])
            << to_string(kind) << " threads=" << threads << " node " << i;
      }
    }
  }
  exec::set_default_threads(saved_threads);
}

}  // namespace
}  // namespace fp
