// Ablation: the Fig.-14 simulated annealing vs the deterministic greedy
// baseline, across the two IR cost modes (ring-dispersion proxy, exact
// mesh solves). Reports the *full-solve* IR improvement each combination
// actually delivers, plus runtime -- justifying the paper's choice of a
// cheap in-loop cost.
#include <cstdio>

#include "assign/dfa.h"
#include "bench_common.h"
#include "exchange/greedy.h"
#include "io/table.h"
#include "power/ir_analysis.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace fp;

const char* mode_name(IrCostMode mode) {
  switch (mode) {
    case IrCostMode::Proxy:
      return "proxy";
    case IrCostMode::Exact:
      return "exact";
  }
  return "?";
}

}  // namespace

int main() {
  CircuitSpec spec = CircuitGenerator::table1(0);
  spec.supply_fraction = 0.25;
  const Package package = CircuitGenerator::generate(spec);
  const PackageAssignment initial = DfaAssigner().assign(package);

  const PowerGridSpec grid_spec = bench::standard_grid();
  const double ir_before =
      analyze_ir(package, initial, grid_spec).max_drop_v;

  TablePrinter table({"optimizer", "IR mode", "full-solve IR impr (%)",
                      "runtime (s)", "moves evaluated"});

  for (const IrCostMode mode : {IrCostMode::Proxy, IrCostMode::Exact}) {
    // --- simulated annealing ---------------------------------------------
    {
      ExchangeOptions options = bench::standard_exchange();
      options.ir_mode = mode;
      options.grid_spec = grid_spec;
      if (mode == IrCostMode::Exact) {
        // Exact solves are ~10^4 x slower; shrink the schedule to keep the
        // harness interactive.
        options.schedule.moves_per_temperature = 4;
        options.schedule.cooling = 0.85;
        options.grid_spec.nodes_per_side = 16;
      }
      const Timer timer;
      const ExchangeResult result =
          ExchangeOptimizer(package, options).optimize(initial);
      const double ir_after =
          analyze_ir(package, result.assignment, grid_spec).max_drop_v;
      table.add_row({"SA", mode_name(mode),
                     format_fixed((1.0 - ir_after / ir_before) * 100.0, 2),
                     format_fixed(timer.seconds(), 3),
                     std::to_string(result.anneal.proposed)});
    }
    // --- greedy ------------------------------------------------------------
    {
      GreedyOptions options;
      options.cost = bench::standard_exchange();
      options.cost.ir_mode = mode;
      options.cost.grid_spec = grid_spec;
      if (mode == IrCostMode::Exact) {
        options.cost.grid_spec.nodes_per_side = 16;
        options.max_passes = 6;
      }
      const Timer timer;
      const ExchangeResult result =
          GreedyExchanger(package, options).optimize(initial);
      const double ir_after =
          analyze_ir(package, result.assignment, grid_spec).max_drop_v;
      table.add_row({"greedy", mode_name(mode),
                     format_fixed((1.0 - ir_after / ir_before) * 100.0, 2),
                     format_fixed(timer.seconds(), 3),
                     std::to_string(result.anneal.proposed)});
    }
  }

  std::printf("Ablation -- optimizer x IR cost mode on circuit1 "
              "(full-solve IR before: %.1f mV)\n%s\n",
              ir_before * 1e3, table.str().c_str());
  return 0;
}
