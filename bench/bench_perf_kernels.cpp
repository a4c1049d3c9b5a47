// Google-benchmark microbenchmarks of the core kernels, backing the
// paper's "runtimes for all cases are within seconds" claim: the three
// assigners, the Eq.-(3) swap delta of the exchange, the congestion
// estimator, the Eq.-(1) solvers and the full co-design flow. The
// *Threads benchmarks sweep the exec worker-pool size; `--json [path]`
// additionally writes the fpkit.bench.parallel.v1 scaling document
// (BENCH_parallel.json, see bench_common.h).
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <string_view>

#include "assign/dfa.h"
#include "assign/ifa.h"
#include "assign/random_assigner.h"
#include "bench_common.h"
#include "exchange/incremental_cost.h"
#include "exec/exec.h"
#include "route/density.h"
#include "route/router.h"
#include "util/rng.h"

namespace {

using namespace fp;

const Package& circuit(int index) {
  static std::vector<Package> packages = [] {
    std::vector<Package> out;
    for (int i = 0; i < 5; ++i) {
      out.push_back(CircuitGenerator::generate(CircuitGenerator::table1(i)));
    }
    return out;
  }();
  return packages[static_cast<std::size_t>(index)];
}

void BM_RandomAssign(benchmark::State& state) {
  const Package& package = circuit(static_cast<int>(state.range(0)));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandomAssigner(seed++).assign(package));
  }
}
BENCHMARK(BM_RandomAssign)->DenseRange(0, 4);

/// Table-1 circuit `arg` for arg 0-4; otherwise circuit 5's geometry with
/// 4 rows per quadrant scaled to `arg` fingers (the plan_large packages);
/// `tiers` dies.
const Package& sized_circuit(int arg, int tiers) {
  static std::map<std::pair<int, int>, Package> packages;
  auto it = packages.find({arg, tiers});
  if (it == packages.end()) {
    CircuitSpec spec = CircuitGenerator::table1(arg < 5 ? arg : 4);
    if (arg >= 5) {
      spec.finger_count = arg;
      spec.rows_per_quadrant = 4;
    }
    spec.tier_count = tiers;
    it = packages.emplace(std::pair{arg, tiers},
                          CircuitGenerator::generate(spec))
             .first;
  }
  return it->second;
}

/// The assigner rows: Table-1 circuits as published, large packages at
/// two tiers.
const Package& assign_circuit(int arg) {
  return arg < 5 ? circuit(arg) : sized_circuit(arg, 2);
}

/// items_per_second of the assigner rows is fingers per second, so the
/// rows at alpha 1536-6144 show how the cost per finger scales.
template <typename AssignerT>
void BM_Assigner(benchmark::State& state) {
  const Package& package = assign_circuit(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssignerT().assign(package));
  }
  state.SetItemsProcessed(state.iterations() * package.finger_count());
}
BENCHMARK(BM_Assigner<IfaAssigner>)
    ->Name("BM_Ifa")
    ->DenseRange(0, 4)
    ->Arg(1536)
    ->Arg(3072)
    ->Arg(6144);
BENCHMARK(BM_Assigner<DfaAssigner>)
    ->Name("BM_Dfa")
    ->DenseRange(0, 4)
    ->Arg(1536)
    ->Arg(3072)
    ->Arg(6144);

/// The DFA start's legal adjacent swaps (quadrant, left finger), in a
/// fixed shuffled order.
std::vector<std::pair<int, int>> legal_swaps(
    const Package& package, const PackageAssignment& initial) {
  std::vector<std::pair<int, int>> swaps;
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const auto& order = initial.quadrants[static_cast<std::size_t>(qi)].order;
    for (std::size_t left = 0; left + 1 < order.size(); ++left) {
      if (q.net_row(order[left]) != q.net_row(order[left + 1])) {
        swaps.emplace_back(qi, static_cast<int>(left));
      }
    }
  }
  Rng(1).shuffle(swaps);
  return swaps;
}

/// One item is one IncrementalCost::cost_after_swap (the SA loop's
/// score of a proposal) on the DFA start, cycling through its legal
/// swaps, so items_per_second shows whether the peek stays flat in alpha.
void BM_IncrementalPeek(benchmark::State& state) {
  const Package& package = sized_circuit(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(1)));
  const PackageAssignment initial = DfaAssigner().assign(package);
  const std::vector<std::pair<int, int>> swaps =
      legal_swaps(package, initial);
  const IncrementalCost cost(package, initial, 20.0, 2.0, 1.0);
  std::size_t next = 0;
  for (auto _ : state) {
    const auto [quadrant, left] = swaps[next];
    if (++next == swaps.size()) next = 0;
    benchmark::DoNotOptimize(cost.cost_after_swap(quadrant, left));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalPeek)
    ->ArgsProduct({{0, 1, 2, 3, 4, 1536, 6144}, {1, 2}})
    ->ArgNames({"circuit", "psi"});

/// One item is one IncrementalCost::apply_swap + current() (the SA
/// loop's commit of an accepted proposal). Each swap is applied twice in
/// a row, the second time reverting it, so the walk stays on the DFA
/// start's legal swaps.
void BM_IncrementalCommit(benchmark::State& state) {
  const Package& package = sized_circuit(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(1)));
  const PackageAssignment initial = DfaAssigner().assign(package);
  const std::vector<std::pair<int, int>> swaps =
      legal_swaps(package, initial);
  IncrementalCost cost(package, initial, 20.0, 2.0, 1.0);
  std::size_t item = 0;
  for (auto _ : state) {
    const auto [quadrant, left] = swaps[item / 2 % swaps.size()];
    ++item;
    cost.apply_swap(quadrant, left);
    benchmark::DoNotOptimize(cost.current());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalCommit)
    ->ArgsProduct({{0, 1, 2, 3, 4, 1536, 6144}, {1, 2}})
    ->ArgNames({"circuit", "psi"});

/// The planning-pass rows: max density (one DensityMap per quadrant) and
/// the full router, on the Table-1 circuits and the plan_large packages.
/// items_per_second is fingers per second, so the rows at alpha 1536-6144
/// show whether the cost per finger stays flat.
void BM_DensityMap(benchmark::State& state) {
  const Package& package = assign_circuit(static_cast<int>(state.range(0)));
  const PackageAssignment assignment = DfaAssigner().assign(package);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_density(package, assignment));
  }
  state.SetItemsProcessed(state.iterations() * package.finger_count());
}
BENCHMARK(BM_DensityMap)->DenseRange(0, 4)->Arg(1536)->Arg(3072)->Arg(6144);

void BM_Router(benchmark::State& state) {
  const Package& package = assign_circuit(static_cast<int>(state.range(0)));
  const PackageAssignment assignment = DfaAssigner().assign(package);
  const MonotonicRouter router;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(package, assignment));
  }
  state.SetItemsProcessed(state.iterations() * package.finger_count());
}
BENCHMARK(BM_Router)->DenseRange(0, 4)->Arg(1536)->Arg(3072)->Arg(6144);

void BM_Solver(benchmark::State& state) {
  PowerGridSpec spec = bench::standard_grid();
  spec.nodes_per_side = static_cast<int>(state.range(1));
  PowerGrid grid(spec);
  std::vector<IPoint> pads;
  for (int i = 0; i < 16; ++i) {
    pads.push_back(ring_slot_node(i * 8, 128, grid.k()));
  }
  grid.set_pads(pads);
  constexpr SolverKind kKinds[] = {SolverKind::Sor,
                                   SolverKind::ConjugateGradient,
                                   SolverKind::Multigrid};
  SolverOptions options;
  options.kind = kKinds[state.range(0)];
  options.tolerance = 1e-8;
  state.SetLabel(std::string(to_string(options.kind)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(grid, options));
  }
}
BENCHMARK(BM_Solver)
    ->ArgsProduct({{0, 1, 2}, {16, 32, 48}})
    ->ArgNames({"kind", "k"});

/// 128 x 128 CG solve at a fixed worker-pool size: the analyze-stage
/// kernel whose dot products and axpy sweeps fan out over the pool.
void BM_SolverCgThreads(benchmark::State& state) {
  PowerGridSpec spec = bench::standard_grid();
  spec.nodes_per_side = 128;
  PowerGrid grid(spec);
  std::vector<IPoint> pads;
  for (int i = 0; i < 16; ++i) {
    pads.push_back(ring_slot_node(i * 8, 128, grid.k()));
  }
  grid.set_pads(pads);
  SolverOptions options;
  options.kind = SolverKind::ConjugateGradient;
  options.tolerance = 1e-8;
  const int saved_threads = exec::default_threads();
  exec::set_default_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(grid, options));
  }
  exec::set_default_threads(saved_threads);
}
BENCHMARK(BM_SolverCgThreads)
    ->Arg(1)->Arg(2)->Arg(4)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

/// 8-replica multi-start SA at a fixed worker-pool size: the replicas
/// run concurrently; the selected winner is thread-count independent.
void BM_MultistartSaThreads(benchmark::State& state) {
  const Package& package = circuit(2);
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions options = bench::standard_exchange();
  options.schedule.moves_per_temperature = 16;
  options.schedule.cooling = 0.9;
  const ExchangeOptimizer optimizer(package, options);
  const int saved_threads = exec::default_threads();
  exec::set_default_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.optimize_multistart(initial, 8));
  }
  exec::set_default_threads(saved_threads);
}
BENCHMARK(BM_MultistartSaThreads)
    ->Arg(1)->Arg(2)->Arg(4)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

void BM_FullFlow(benchmark::State& state) {
  const Package& package = circuit(static_cast<int>(state.range(0)));
  FlowOptions options;
  options.method = AssignmentMethod::Dfa;
  options.grid_spec = bench::standard_grid();
  options.grid_spec.nodes_per_side = 16;
  options.exchange = bench::standard_exchange();
  options.exchange.schedule.moves_per_temperature = 16;
  options.exchange.schedule.cooling = 0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CodesignFlow(options).run(package));
  }
}
BENCHMARK(BM_FullFlow)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

}  // namespace

/// BENCHMARK_MAIN with three extra flags: `--json [path]` runs the shared
/// parallel-scaling sweep after the registered benchmarks and writes the
/// fpkit.bench.parallel.v1 document (at `path` as given, else
/// BENCH_parallel.json in the `--out <dir>` directory), and
/// `--artifact-dir <dir>` additionally records the sweep as an
/// fpkit.run.v1 artifact for `fpkit compare`. Every other flag is
/// forwarded to google-benchmark untouched.
int main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  std::string artifact_dir;
  std::vector<char*> forwarded;
  forwarded.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = std::string(arg.substr(7));
    } else if (arg == "--artifact-dir" && i + 1 < argc) {
      artifact_dir = argv[++i];
    } else if (arg.rfind("--artifact-dir=", 0) == 0) {
      artifact_dir = std::string(arg.substr(15));
    } else if (arg == "--out" && i + 1 < argc) {
      fp::bench::set_artefact_dir(argv[++i]);
    } else if (arg.rfind("--out=", 0) == 0) {
      fp::bench::set_artefact_dir(std::string(arg.substr(6)));
    } else {
      forwarded.push_back(argv[i]);
    }
  }
  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded_argc,
                                             forwarded.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (json || !artifact_dir.empty()) {
    fp::bench::emit_parallel_results(
        json ? fp::bench::json_output_path(json_path) : "", artifact_dir,
        "bench_perf_kernels");
  }
  return 0;
}
