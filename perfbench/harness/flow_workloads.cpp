// flow_table1 and signoff_mesh: both time CodesignFlow::run, and both
// trace it by replaying the flow's own sequence of public layer calls,
// which must reproduce the flow's outputs bit for bit.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "assign/dfa.h"
#include "assign/ifa.h"
#include "codesign/flow.h"
#include "exec/exec.h"
#include "route/router.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct FlowJob {
  int circuit = 0;  // Table-1 index
  fp::AssignmentMethod method = fp::AssignmentMethod::Dfa;
  int mesh = 32;
  bool exchange = true;
  std::uint64_t seed = 1;
};

/// `fpkit run` defaults, plus the job's method, mesh and seed.
fp::FlowOptions flow_options(const FlowJob& job) {
  fp::FlowOptions options;
  options.method = job.method;
  options.random_seed = job.seed;
  options.run_exchange = job.exchange;
  options.grid_spec.nodes_per_side = job.mesh;
  options.exchange.schedule.seed = job.seed;
  options.self_check = false;  // the release default, pinned for any build
  return options;
}

/// Every output of a flow run the benchmark scores or checks.
std::string flow_digest(const fp::FlowResult& r) {
  Digest d;
  d.add(r.initial).add(r.final);
  d.add(r.max_density_initial).add(r.max_density_final);
  d.add(r.flyline_initial_um).add(r.flyline_final_um);
  for (const fp::IrReport* ir : {&r.ir_initial, &r.ir_final}) {
    d.add(ir->max_drop_v).add(ir->mean_drop_v).add(ir->solver_iterations);
  }
  for (const fp::BondingWireReport* b :
       {&r.bonding_initial, &r.bonding_final}) {
    d.add(b->omega).add(b->total_um).add(b->max_um).add(b->crossings);
  }
  d.add(r.anneal.final_cost).add(r.anneal.best_cost);
  d.add(static_cast<std::uint64_t>(r.anneal.proposed))
      .add(static_cast<std::uint64_t>(r.anneal.accepted))
      .add(static_cast<std::uint64_t>(r.anneal.rejected_illegal));
  return d.hex();
}

struct FlowLayers {
  Acc dfa, ifa, density, flyline, bonding, exchange;
  PowerAcc power;
  long long proposals = 0;
  long long accepted = 0;
  long long illegal = 0;
};

/// The flow's analyze stage as separate layer calls.
void analyze(const fp::Package& package, const fp::PackageAssignment& a,
             const fp::FlowOptions& o, FlowLayers& layers, Tracer& tracer,
             int& density, double& flyline, fp::IrReport& ir,
             fp::BondingWireReport& bonding) {
  const double fingers = package.finger_count();
  density = layer_call(tracer, layers.density, "route.max_density", "route",
                       fingers,
                       [&] { return fp::max_density(package, a, o.routing); });
  flyline = layer_call(tracer, layers.flyline, "route.total_flyline_um",
                       "route", fingers,
                       [&] { return fp::total_flyline_um(package, a); });
  if (!package.netlist().supply_nets().empty()) {
    ir = layer_call(tracer, layers.power.time, "power.analyze_ir", "power",
                    0.0, [&] {
                      return fp::analyze_ir(package, a, o.grid_spec,
                                            o.solver);
                    });
    layers.power.add_solve(o.grid_spec.nodes_per_side, ir.solver_iterations,
                           ir.solver_attempts);
  }
  bonding = layer_call(tracer, layers.bonding, "stack.analyze_bonding",
                       "stack", 1.0, [&] {
                         return fp::analyze_bonding(package, a, o.stacking);
                       });
}

/// CodesignFlow::run's sequence of public calls (codesign/flow.cpp):
/// assign, analyze, exchange, analyze.
fp::FlowResult replay_flow(const fp::Package& package,
                           const fp::FlowOptions& o, FlowLayers& layers,
                           Tracer& tracer) {
  fp::FlowResult r;
  const double fingers = package.finger_count();
  if (o.method == fp::AssignmentMethod::Ifa) {
    r.initial = layer_call(tracer, layers.ifa, "assign.ifa", "assign",
                           fingers,
                           [&] { return fp::IfaAssigner().assign(package); });
  } else {
    r.initial = layer_call(tracer, layers.dfa, "assign.dfa", "assign",
                           fingers, [&] {
                             return fp::DfaAssigner(o.dfa_cut_line_n)
                                 .assign(package);
                           });
  }
  analyze(package, r.initial, o, layers, tracer, r.max_density_initial,
          r.flyline_initial_um, r.ir_initial, r.bonding_initial);
  if (o.run_exchange) {
    fp::ExchangeOptions eo = o.exchange;
    eo.grid_spec = o.grid_spec;
    eo.solver = o.solver;
    fp::ExchangeResult exchanged =
        layer_call(tracer, layers.exchange, "exchange.optimize", "exchange",
                   0.0, [&] {
                     const fp::ExchangeOptimizer optimizer(package, eo);
                     return optimizer.optimize(r.initial);
                   });
    r.final = std::move(exchanged.assignment);
    r.anneal = exchanged.anneal;
    layers.exchange.work += static_cast<double>(r.anneal.proposed);
    layers.proposals += r.anneal.proposed;
    layers.accepted += r.anneal.accepted;
    layers.illegal += r.anneal.rejected_illegal;
  } else {
    r.final = r.initial;
  }
  analyze(package, r.final, o, layers, tracer, r.max_density_final,
          r.flyline_final_um, r.ir_final, r.bonding_final);
  return r;
}

struct FlowWorkload {
  const char* name = "";
  const char* job_span = "";
  std::vector<FlowJob> jobs;         // the measured cycle, seed-ordered
  std::vector<FlowJob> golden_jobs;  // the default seed's cycle
  std::vector<FlowJob> fill_jobs;    // short replay covering every layer
  /// Score eq3_cost from the returned anneal (exchange on) or by
  /// evaluating Eq. (3) on the returned design (exchange off).
  bool eq3_from_anneal = true;
};

void put_rows(const FlowLayers& layers, long long jobs,
              WorkloadResult& result) {
  auto& rows = result.rows;
  if (layers.dfa.calls > 0) {
    rows["assign.dfa.us_per_finger"] = us_per_work(layers.dfa);
  }
  if (layers.ifa.calls > 0) {
    rows["assign.ifa.us_per_finger"] = us_per_work(layers.ifa);
  }
  Acc assign = layers.dfa;
  assign.busy_ns += layers.ifa.busy_ns;
  rows["assign.busy_ms"] = ms_per_job(assign, jobs);
  rows["route.density.us_per_finger"] = us_per_work(layers.density);
  Acc route = layers.density;
  route.busy_ns += layers.flyline.busy_ns;
  rows["route.busy_ms"] = ms_per_job(route, jobs);
  layers.power.put_rows(rows, jobs);
  if (layers.exchange.calls > 0 && layers.proposals > 0) {
    const auto proposals = static_cast<double>(layers.proposals);
    rows["exchange.proposals"] = proposals / static_cast<double>(jobs);
    rows["exchange.us_per_proposal"] = us_per_work(layers.exchange);
    rows["exchange.accept_ratio"] =
        static_cast<double>(layers.accepted) / proposals;
    rows["exchange.illegal_ratio"] =
        static_cast<double>(layers.illegal) / proposals;
    rows["exchange.busy_ms"] = ms_per_job(layers.exchange, jobs);
  }
  rows["stack.bonding.us_per_call"] =
      layers.bonding.busy_ns / 1e3 /
      static_cast<double>(std::max<long long>(1, layers.bonding.calls));
  result.stage_s["assign"] = assign.busy_ns / 1e9;
  result.stage_s["route"] = route.busy_ns / 1e9;
  result.stage_s["power"] = layers.power.time.busy_ns / 1e9;
  result.stage_s["exchange"] = layers.exchange.busy_ns / 1e9;
  result.stage_s["stack"] = layers.bonding.busy_ns / 1e9;
}

WorkloadResult run_flow_workload(const RunConfig& config, Tracer& tracer,
                                 const FlowWorkload& w) {
  WorkloadResult result;
  fp::exec::set_default_threads(1);
  const std::vector<FlowJob>& jobs = config.fill ? w.fill_jobs : w.jobs;

  // Set-up: generate, write and load the five circuits, then prime with
  // the default seed's first job -- the same work at every seed -- so
  // lazy initialisation is paid before timing.
  Acc generate;
  std::vector<fp::Package> packages;
  const int reps = config.fill ? 1 : kSetupRepeats;
  for (int rep = 0; rep < reps; ++rep) {
    const std::int64_t begin = now_ns();
    packages.clear();
    for (int c = 0; c < 5; ++c) {
      packages.push_back(make_package(table1_stacked(c),
                                      config.out_dir + "/circuits",
                                      generate));
    }
    (void)fp::CodesignFlow(flow_options(w.golden_jobs.front()))
        .run(packages[static_cast<std::size_t>(
            w.golden_jobs.front().circuit)]);
    result.setup_s.push_back(static_cast<double>(now_ns() - begin) / 1e9);
  }

  std::vector<std::string> first_digest(jobs.size());
  std::vector<fp::FlowResult> first_result(jobs.size());
  FlowLayers layers;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  long long replayed = 0;
  const std::int64_t loop_begin = now_ns();
  const auto deadline =
      loop_begin + static_cast<std::int64_t>(config.seconds * 1e9);
  const long long max_jobs =
      config.fill ? static_cast<long long>(jobs.size()) : config.max_jobs;
  for (long long n = 0;; ++n) {
    if (max_jobs > 0 ? n >= max_jobs : now_ns() >= deadline) break;
    const std::size_t slot = static_cast<std::size_t>(n) % jobs.size();
    const FlowJob& job = jobs[slot];
    const fp::Package& package =
        packages[static_cast<std::size_t>(job.circuit)];
    const fp::FlowOptions options = flow_options(job);
    ++result.attempted;
    const std::string label = std::string(w.name) + " job " + std::to_string(n);
    try {
      const std::int64_t begin = now_ns();
      fp::FlowResult r = fp::CodesignFlow(options).run(package);
      const double ms = static_cast<double>(now_ns() - begin) / 1e6;
      (config.trace ? untraced_ms : result.job_ms).push_back(ms);
      const std::string digest = flow_digest(r);
      if (r.degraded) {
        result.fail(label + ": flow degraded");
      } else if (first_digest[slot].empty()) {
        first_digest[slot] = digest;
        first_result[slot] = std::move(r);
      } else if (digest != first_digest[slot]) {
        result.fail(label + ": outputs differ from the same job's first run");
      }
      if (config.trace) {
        const std::int64_t replay_begin = now_ns();
        const fp::FlowResult replay =
            replay_flow(package, options, layers, tracer);
        const std::int64_t replay_end = now_ns();
        tracer.record(w.job_span, "job", replay_begin, replay_end, 0);
        traced_ms.push_back(static_cast<double>(replay_end - replay_begin) /
                            1e6);
        ++replayed;
        if (flow_digest(replay) != digest) {
          result.fail(label + ": traced replay differs from CodesignFlow::run");
        }
      }
    } catch (const std::exception& error) {
      result.fail(label + ": " + error.what());
    }
  }
  result.loop_s = static_cast<double>(now_ns() - loop_begin) / 1e9;
  result.peak_rss_mb = peak_rss_mb();

  if (config.trace) {
    put_rows(layers, replayed, result);
    put_common_rows(result.rows, generate, traced_ms, untraced_ms);
  } else {
    // Quality of the first cycle's designs (scored outside the loop).
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (first_digest[i].empty()) continue;
      const fp::FlowResult& r = first_result[i];
      const fp::Package& package =
          packages[static_cast<std::size_t>(jobs[i].circuit)];
      result.quality.add(w.eq3_from_anneal ? r.anneal.final_cost
                                           : eq3_cost(package, r.final),
                         r.ir_final.max_drop_v, r.max_density_final,
                         r.bonding_final.omega);
    }
  }

  // Golden pass: the default seed's cycle on 2 exec threads against
  // digests recorded at 1 -- fixed seed means bit-identical at any thread
  // count.
  if (!config.fill) {
    fp::exec::set_default_threads(config.record_golden ? 1 : 2);
    std::vector<std::string> golden;
    for (const FlowJob& job : w.golden_jobs) {
      try {
        golden.push_back(flow_digest(
            fp::CodesignFlow(flow_options(job))
                .run(packages[static_cast<std::size_t>(job.circuit)])));
      } catch (const std::exception& error) {
        golden.push_back(std::string("error: ") + error.what());
      }
    }
    check_golden(config, w.name, golden, result);
    fp::exec::set_default_threads(1);
  }
  return result;
}

/// 16 SA seeds drawn from the workload seed x the five circuits.
std::vector<FlowJob> table1_cycle(std::uint64_t seed) {
  std::vector<FlowJob> jobs;
  for (int s = 0; s < 16; ++s) {
    const std::uint64_t sa_seed =
        mix_seed(seed, 100 + static_cast<std::uint64_t>(s)) >> 16;
    for (int c = 0; c < 5; ++c) {
      FlowJob job;
      job.circuit = c;
      job.seed = sa_seed;
      jobs.push_back(job);
    }
  }
  return jobs;
}

/// Every (circuit, method, mesh) sign-off job, canonical order.
std::vector<FlowJob> signoff_cycle() {
  std::vector<FlowJob> jobs;
  for (int c = 0; c < 5; ++c) {
    for (const fp::AssignmentMethod method :
         {fp::AssignmentMethod::Dfa, fp::AssignmentMethod::Ifa}) {
      for (const int mesh : {64, 96, 128}) {
        FlowJob job;
        job.circuit = c;
        job.method = method;
        job.mesh = mesh;
        job.exchange = false;
        jobs.push_back(job);
      }
    }
  }
  return jobs;
}

}  // namespace

WorkloadResult run_flow_table1(const RunConfig& config, Tracer& tracer) {
  FlowWorkload w;
  w.name = "flow_table1";
  w.job_span = "flow_table1.job";
  w.jobs = table1_cycle(config.seed);
  w.golden_jobs = table1_cycle(
      config.golden != nullptr ? config.golden->default_seed : config.seed);
  w.fill_jobs.assign(w.jobs.begin(), w.jobs.begin() + 5);
  return run_flow_workload(config, tracer, w);
}

WorkloadResult run_signoff_mesh(const RunConfig& config, Tracer& tracer) {
  FlowWorkload w;
  w.name = "signoff_mesh";
  w.job_span = "signoff_mesh.job";
  w.golden_jobs = signoff_cycle();
  w.jobs = w.golden_jobs;
  fp::Rng rng(mix_seed(config.seed, 1));
  for (std::size_t i = w.jobs.size() - 1; i > 0; --i) {
    std::swap(w.jobs[i], w.jobs[rng.index(i + 1)]);
  }
  // One job per mesh size, both assigners: circuit 1 DFA k64, IFA k96,
  // DFA k128 (canonical indices 0, 4, 2).
  w.fill_jobs = {w.golden_jobs[0], w.golden_jobs[4], w.golden_jobs[2]};
  w.eq3_from_anneal = false;
  return run_flow_workload(config, tracer, w);
}

}  // namespace perfbench
