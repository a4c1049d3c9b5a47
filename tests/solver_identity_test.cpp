// Bit-identity tests of the IR-drop solver (src/power/solver.cpp).
//
// SolverIdentity runs the production ConjugateGradient backend against the
// compact free-node Jacobi-PCG oracle of tests/cg_oracle.h on meshes that
// straddle the reduce grain (k up to 130, so several canonical chunks),
// with single pads, corner/edge pad sets, all-but-one-node pad sets,
// hotspots, explicit current maps with zero entries and warm starts, at
// 1, 2 and 8 threads. Iterations, residual, stop reason and every voltage
// must match exactly. SolverPin pins the end-to-end IR figures of the
// Table-1 circuits (DFA assignment) as hex floats: CG at meshes 32/48/64,
// and SOR and multigrid at meshes 32/48/96 (96^2 nodes span several
// reduce chunks), all recorded from the free-node solvers the halo layout
// replaced.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "assign/dfa.h"
#include "cg_oracle.h"
#include "exec/exec.h"
#include "package/circuit_generator.h"
#include "power/ir_analysis.h"
#include "power/power_grid.h"
#include "power/solver.h"

namespace fp {
namespace {

PowerGrid make_grid(int k) {
  PowerGridSpec spec;
  spec.nodes_per_side = k;
  return PowerGrid(spec);
}

struct Case {
  std::string name;
  PowerGrid grid;
};

/// The pad and load variants run at every mesh size.
std::vector<Case> cases_for(int k) {
  std::vector<Case> cases;
  {
    PowerGrid grid = make_grid(k);
    grid.set_pads({{k / 3, k / 2}});
    cases.push_back({"single_pad", grid});
  }
  {
    PowerGrid grid = make_grid(k);
    grid.add_hotspot({0.1, 0.6, 0.5, 0.9}, 4.0);
    grid.set_pads({{0, 0},
                   {k - 1, 0},
                   {0, k - 1},
                   {k - 1, k - 1},
                   {k / 2, 0},
                   {0, k / 2},
                   {k - 1, k / 2},
                   {k / 2, k - 1}});
    cases.push_back({"corners_edges_hotspot", grid});
  }
  {
    PowerGrid grid = make_grid(k);
    std::vector<IPoint> pads;
    for (int y = 0; y < k; ++y) {
      for (int x = 0; x < k; ++x) {
        if (x != k / 2 || y != k / 2) pads.push_back({x, y});
      }
    }
    grid.set_pads(pads);
    cases.push_back({"all_but_one", grid});
  }
  {
    PowerGrid grid = make_grid(k);
    const auto n = static_cast<std::size_t>(k);
    Grid2D<double> amps(n, n, 0.0);
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        // Every third node draws nothing; the rest follow a ramp.
        if ((x + 2 * y) % 3 != 0) {
          amps(x, y) = 1e-3 * static_cast<double>(1 + (x * 7 + y * 3) % 11);
        }
      }
    }
    grid.set_explicit_currents(amps);
    std::vector<IPoint> pads;
    for (int x = 0; x < k; x += 3) pads.push_back({x, k - 1});
    grid.set_pads(pads);
    cases.push_back({"explicit_with_zeros", grid});
  }
  return cases;
}

void expect_identical(const SolveResult& actual, const SolveResult& expected,
                      const std::string& label) {
  EXPECT_EQ(actual.iterations, expected.iterations) << label;
  EXPECT_EQ(actual.relative_residual, expected.relative_residual) << label;
  EXPECT_EQ(actual.stop, expected.stop) << label;
  ASSERT_EQ(actual.voltage.data().size(), expected.voltage.data().size())
      << label;
  for (std::size_t i = 0; i < actual.voltage.data().size(); ++i) {
    ASSERT_EQ(actual.voltage.data()[i], expected.voltage.data()[i])
        << label << " node " << i;
  }
}

/// The production CG against the oracle at 1, 2 and 8 threads.
void check_against_oracle(const PowerGrid& grid, const SolverOptions& options,
                          const std::string& label) {
  const int saved_threads = exec::default_threads();
  exec::set_default_threads(1);
  const SolveResult expected = oracle::solve_cg(grid, options);
  for (const int threads : {1, 2, 8}) {
    exec::set_default_threads(threads);
    const SolveResult actual = solve(grid, options);
    expect_identical(actual, expected,
                     label + " threads=" + std::to_string(threads));
  }
  exec::set_default_threads(saved_threads);
}

class SolverIdentity : public ::testing::TestWithParam<int> {};

TEST_P(SolverIdentity, ConjugateGradientMatchesFreeNodeOracle) {
  const int k = GetParam();
  const std::vector<Case> cases = cases_for(k);
  for (const Case& c : cases) {
    check_against_oracle(c.grid, SolverOptions{},
                         "k=" + std::to_string(k) + " " + c.name);
  }
  // Warm starts: re-solve the corner/edge mesh from the single-pad field,
  // and the single-pad mesh from the corner/edge field.
  const SolveResult single = solve(cases[0].grid);
  const SolveResult corners = solve(cases[1].grid);
  SolverOptions warm;
  warm.warm_start = &single.voltage;
  check_against_oracle(cases[1].grid, warm,
                       "k=" + std::to_string(k) + " warm corners");
  warm.warm_start = &corners.voltage;
  check_against_oracle(cases[0].grid, warm,
                       "k=" + std::to_string(k) + " warm single");
  // An iteration-limited solve stops at the same iterate.
  SolverOptions limited;
  limited.max_iterations = 7;
  check_against_oracle(cases[1].grid, limited,
                       "k=" + std::to_string(k) + " limited");
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, SolverIdentity,
                         ::testing::Values(2, 3, 5, 31, 32, 33, 48, 64, 65,
                                           96, 130));

/// End-to-end IR figures of a Table-1 circuit's DFA assignment at one
/// mesh size, recorded from the free-node solver this layout replaced.
struct IrPin {
  int circuit = 0;  // CircuitGenerator::table1 index (circuit - 1)
  int mesh = 0;
  double max_drop_v = 0.0;
  double mean_drop_v = 0.0;
  int iterations = 0;
};

constexpr IrPin kIrPins[] = {
    {0, 32, 0x1.4ecaef21e5d3p-5, 0x1.8702cb04c230ep-6, 115},
    {0, 48, 0x1.6614dfc4d18p-5, 0x1.b58db2bdc5fbcp-6, 176},
    {0, 64, 0x1.7b8779bed876p-5, 0x1.ddb45e6dc749fp-6, 237},
    {1, 32, 0x1.1238ef550104p-5, 0x1.23196d375c5d8p-6, 102},
    {1, 48, 0x1.2245290aa205p-5, 0x1.4168254103aa7p-6, 136},
    {1, 64, 0x1.2e5d0d06bc96p-5, 0x1.5813da5ae7056p-6, 201},
    {2, 32, 0x1.12acf940e35p-5, 0x1.19899e23a844p-6, 102},
    {2, 48, 0x1.22a77025fbbcp-5, 0x1.3687a6e0adcddp-6, 153},
    {2, 64, 0x1.2c2943fca164p-5, 0x1.48bbe31a670a7p-6, 209},
    {3, 32, 0x1.d603f00321dap-6, 0x1.b620ba3f39d5ep-7, 77},
    {3, 48, 0x1.ead80eb566bcp-6, 0x1.dbbcb595a1f4bp-7, 125},
    {3, 64, 0x1.f3a09c4a506ep-6, 0x1.ecb2e8e1bc977p-7, 170},
    {4, 32, 0x1.d6a86f1099aap-6, 0x1.b6fcf5ba6a199p-7, 85},
    {4, 48, 0x1.e6e21ebdba6ap-6, 0x1.d4bef02c7e792p-7, 128},
    {4, 64, 0x1.f30e284a20b2p-6, 0x1.eafd965b317f9p-7, 171},
};

TEST(SolverPin, Table1IrMatchesPinnedSolves) {
  for (const IrPin& pin : kIrPins) {
    SCOPED_TRACE("circuit " + std::to_string(pin.circuit + 1) + ", mesh " +
                 std::to_string(pin.mesh));
    const Package package =
        CircuitGenerator::generate(CircuitGenerator::table1(pin.circuit));
    PowerGridSpec spec;
    spec.nodes_per_side = pin.mesh;
    const IrReport report =
        analyze_ir(package, DfaAssigner().assign(package), spec);
    EXPECT_EQ(report.max_drop_v, pin.max_drop_v);
    EXPECT_EQ(report.mean_drop_v, pin.mean_drop_v);
    EXPECT_EQ(report.solver_iterations, pin.iterations);
    EXPECT_EQ(report.solver_stop, SolveStop::Converged);
  }
}

/// The same figures for the SOR and multigrid backends.
struct BackendPin {
  SolverKind kind = SolverKind::Sor;
  int circuit = 0;
  int mesh = 0;
  double max_drop_v = 0.0;
  double mean_drop_v = 0.0;
  int iterations = 0;
};

constexpr SolverKind kSor = SolverKind::Sor;
constexpr SolverKind kMg = SolverKind::Multigrid;

constexpr BackendPin kBackendPins[] = {
    {kSor, 0, 32, 0x1.4ecaee0d7904p-5, 0x1.8702c9872dc19p-6, 240},
    {kSor, 0, 48, 0x1.6614dd592cccp-5, 0x1.b58dafc953741p-6, 624},
    {kSor, 0, 96, 0x1.8e0b2c294d37p-5, 0x1.013f39782aae1p-5, 2808},
    {kSor, 1, 32, 0x1.1238ee554b3dp-5, 0x1.23196c0e43791p-6, 176},
    {kSor, 1, 48, 0x1.2245254e8fbep-5, 0x1.41682220587c8p-6, 464},
    {kSor, 1, 96, 0x1.3bd62bbfb494p-5, 0x1.71791758932e2p-6, 2064},
    {kSor, 2, 32, 0x1.12acf8691336p-5, 0x1.19899d524e3ap-6, 184},
    {kSor, 2, 48, 0x1.22a76cd1ce32p-5, 0x1.3687a3ebcf42bp-6, 472},
    {kSor, 2, 96, 0x1.376626ce1a5p-5, 0x1.5c4bb999eab34p-6, 2032},
    {kSor, 3, 32, 0x1.d603ec84d44p-6, 0x1.b620b7c9d7476p-7, 136},
    {kSor, 3, 48, 0x1.ead808ed621ap-6, 0x1.dbbcb0a53db34p-7, 376},
    {kSor, 3, 96, 0x1.0198aa145187p-5, 0x1.0502565662895p-6, 1584},
    {kSor, 4, 32, 0x1.d6a86c31eeb6p-6, 0x1.b6fcf32638ab3p-7, 136},
    {kSor, 4, 48, 0x1.e6e2183a62aep-6, 0x1.d4beea43bcbbbp-7, 368},
    {kSor, 4, 96, 0x1.002ece92d484p-5, 0x1.023b13f8ee37dp-6, 1568},
    {kMg, 0, 32, 0x1.4ecaef74dfb3p-5, 0x1.8702cb0343016p-6, 41},
    {kMg, 0, 48, 0x1.6614e00dc8cap-5, 0x1.b58db2bc316a1p-6, 57},
    {kMg, 0, 96, 0x1.8e0b32b217e6p-5, 0x1.013f3d51be56ep-5, 82},
    {kMg, 1, 32, 0x1.1238ef90fe95p-5, 0x1.23196d36419fdp-6, 43},
    {kMg, 1, 48, 0x1.224528855e7dp-5, 0x1.4168254035034p-6, 49},
    {kMg, 1, 96, 0x1.3bd6333301fap-5, 0x1.71791f0bb1b1cp-6, 71},
    {kMg, 2, 32, 0x1.12acf94dfaaep-5, 0x1.19899e2274bdcp-6, 40},
    {kMg, 2, 48, 0x1.22a76ff985cp-5, 0x1.3687a6dfeaabap-6, 53},
    {kMg, 2, 96, 0x1.37662f6d626ep-5, 0x1.5c4bc206f4ee3p-6, 71},
    {kMg, 3, 32, 0x1.d603ef867dccp-6, 0x1.b620ba3db3af1p-7, 37},
    {kMg, 3, 48, 0x1.ead80efaa454p-6, 0x1.dbbcb59449879p-7, 45},
    {kMg, 3, 96, 0x1.0198b330ce53p-5, 0x1.05025e315ae6ap-6, 63},
    {kMg, 4, 32, 0x1.d6a86f8b18f4p-6, 0x1.b6fcf5b8943fap-7, 37},
    {kMg, 4, 48, 0x1.e6e21f5f15b6p-6, 0x1.d4bef02b4098cp-7, 45},
    {kMg, 4, 96, 0x1.002ed826f36dp-5, 0x1.023b1c3889efbp-6, 63},
};

TEST(SolverPin, SorAndMultigridMatchPinnedSolves) {
  for (const BackendPin& pin : kBackendPins) {
    SCOPED_TRACE(std::string(to_string(pin.kind)) + ", circuit " +
                 std::to_string(pin.circuit + 1) + ", mesh " +
                 std::to_string(pin.mesh));
    const Package package =
        CircuitGenerator::generate(CircuitGenerator::table1(pin.circuit));
    PowerGridSpec spec;
    spec.nodes_per_side = pin.mesh;
    SolverOptions options;
    options.kind = pin.kind;
    const IrReport report =
        analyze_ir(package, DfaAssigner().assign(package), spec, options);
    EXPECT_EQ(report.max_drop_v, pin.max_drop_v);
    EXPECT_EQ(report.mean_drop_v, pin.mean_drop_v);
    EXPECT_EQ(report.solver_iterations, pin.iterations);
    EXPECT_EQ(report.solver_stop, SolveStop::Converged);
  }
}

}  // namespace
}  // namespace fp
