// plan_large: the planning pass of `fpkit plan` + `fpkit route` +
// `fpkit check` on packages far larger than Table 1, where assignment,
// routing and the check engine do all the work.
#include <algorithm>
#include <string>
#include <vector>

#include "analysis/check.h"
#include "assign/dfa.h"
#include "assign/ifa.h"
#include "exec/exec.h"
#include "power/ir_analysis.h"
#include "route/router.h"
#include "stack/stacking.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kAlphas[] = {1536, 3072, 6144};

struct PlanJob {
  int package = 0;  // index into kAlphas
  bool dfa = true;
};

struct PlanOutput {
  fp::PackageAssignment assignment;
  int max_density = 0;
  std::string digest;
  std::size_t errors = 0;  // Error-severity findings
};

struct PlanLayers {
  Acc dfa, ifa, router, density, check;
  long long rules = 0;
};

/// Circuit-5 geometry (Table 1), 4 rows per quadrant, 2 tiers, scaled to
/// `alpha` fingers; the netlist is drawn from `seed`.
fp::CircuitSpec large_spec(int alpha, std::uint64_t seed) {
  fp::CircuitSpec spec = fp::CircuitGenerator::table1(4);
  spec.name = "plan_a" + std::to_string(alpha);
  spec.finger_count = alpha;
  spec.rows_per_quadrant = 4;
  spec.tier_count = 2;
  spec.seed = seed;
  return spec;
}

std::vector<fp::Package> make_packages(std::uint64_t seed,
                                       const std::string& dir,
                                       Acc& generate) {
  std::vector<fp::Package> packages;
  for (int i = 0; i < 3; ++i) {
    packages.push_back(make_package(
        large_spec(kAlphas[i], mix_seed(seed, 10 + static_cast<unsigned>(i))),
        dir, generate));
  }
  return packages;
}

/// One planning job: assign, route, max density, package + assignment
/// checks. Layer calls are timed into `layers` (and traced when the
/// tracer is on).
PlanOutput plan(const fp::Package& package, bool dfa, PlanLayers& layers,
                Tracer& tracer) {
  const double fingers = package.finger_count();
  PlanOutput out;
  out.assignment =
      dfa ? layer_call(tracer, layers.dfa, "assign.dfa", "assign", fingers,
                       [&] { return fp::DfaAssigner().assign(package); })
          : layer_call(tracer, layers.ifa, "assign.ifa", "assign", fingers,
                       [&] { return fp::IfaAssigner().assign(package); });
  const fp::PackageRoute route =
      layer_call(tracer, layers.router, "route.router", "route", fingers,
                 [&] {
                   return fp::MonotonicRouter().route(package,
                                                      out.assignment);
                 });
  out.max_density = layer_call(
      tracer, layers.density, "route.max_density", "route", fingers,
      [&] { return fp::max_density(package, out.assignment); });
  fp::CheckContext context;
  context.package = &package;
  context.assignment = &out.assignment;
  const auto reports = layer_call(
      tracer, layers.check, "analysis.run_checks", "analysis", fingers, [&] {
        return std::pair{fp::run_checks(context, fp::CheckStage::Package),
                         fp::run_checks(context, fp::CheckStage::Assignment)};
      });
  Digest d;
  d.add(out.assignment).add(route.max_density).add(route.total_flyline_um);
  d.add(route.total_routed_um).add(out.max_density);
  for (const fp::CheckReport* report : {&reports.first, &reports.second}) {
    layers.rules += report->rules_run;
    out.errors += report->error_count();
    for (const fp::CheckFinding& f : report->findings) {
      d.add(f.rule).add(fp::to_string(f.severity)).add(f.message);
    }
  }
  out.digest = d.hex();
  return out;
}

std::vector<PlanJob> canonical_jobs() {
  std::vector<PlanJob> jobs;
  for (int p = 0; p < 3; ++p) {
    jobs.push_back(PlanJob{p, true});
    jobs.push_back(PlanJob{p, false});
  }
  return jobs;
}

}  // namespace

WorkloadResult run_plan_large(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;
  fp::exec::set_default_threads(1);
  std::vector<PlanJob> jobs = canonical_jobs();
  fp::Rng rng(mix_seed(config.seed, 2));
  for (std::size_t i = jobs.size() - 1; i > 0; --i) {
    std::swap(jobs[i], jobs[rng.index(i + 1)]);
  }
  const std::string dir = config.out_dir + "/circuits";

  Acc generate;
  std::vector<fp::Package> packages;
  PlanLayers scratch;
  Tracer off(false);
  const int reps = config.fill ? 1 : kSetupRepeats;
  for (int rep = 0; rep < reps; ++rep) {
    const std::int64_t begin = now_ns();
    packages = make_packages(config.seed, dir, generate);
    (void)plan(packages[0], true, scratch, off);  // prime
    result.setup_s.push_back(static_cast<double>(now_ns() - begin) / 1e9);
  }

  std::vector<std::string> first_digest(jobs.size());
  std::vector<PlanOutput> first_output(jobs.size());
  PlanLayers layers;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  long long traced_jobs = 0;
  const std::int64_t loop_begin = now_ns();
  const auto deadline =
      loop_begin + static_cast<std::int64_t>(config.seconds * 1e9);
  const long long max_jobs =
      config.fill ? static_cast<long long>(jobs.size()) : config.max_jobs;
  for (long long n = 0;; ++n) {
    if (max_jobs > 0 ? n >= max_jobs : now_ns() >= deadline) break;
    const std::size_t slot = static_cast<std::size_t>(n) % jobs.size();
    const PlanJob& job = jobs[slot];
    const fp::Package& package =
        packages[static_cast<std::size_t>(job.package)];
    ++result.attempted;
    const std::string label = "plan_large job " + std::to_string(n);
    try {
      const std::int64_t begin = now_ns();
      PlanOutput out = plan(package, job.dfa, scratch, off);
      const double ms = static_cast<double>(now_ns() - begin) / 1e6;
      (config.trace ? untraced_ms : result.job_ms).push_back(ms);
      const std::string digest = out.digest;
      if (out.errors > 0) {
        result.fail(label + ": " + std::to_string(out.errors) +
                    " Error-severity finding(s)");
      } else if (first_digest[slot].empty()) {
        first_digest[slot] = digest;
        first_output[slot] = std::move(out);
      } else if (digest != first_digest[slot]) {
        result.fail(label + ": outputs differ from the same job's first run");
      }
      if (config.trace) {
        const std::int64_t traced_begin = now_ns();
        const PlanOutput traced = plan(package, job.dfa, layers, tracer);
        const std::int64_t traced_end = now_ns();
        tracer.record("plan_large.job", "job", traced_begin, traced_end, 0);
        traced_ms.push_back(static_cast<double>(traced_end - traced_begin) /
                            1e6);
        ++traced_jobs;
        if (traced.digest != digest) {
          result.fail(label + ": traced run differs from the untraced one");
        }
      }
    } catch (const std::exception& error) {
      result.fail(label + ": " + error.what());
    }
  }
  result.loop_s = static_cast<double>(now_ns() - loop_begin) / 1e9;
  result.peak_rss_mb = peak_rss_mb();

  if (config.trace) {
    auto& rows = result.rows;
    rows["assign.dfa.us_per_finger"] = us_per_work(layers.dfa);
    rows["assign.ifa.us_per_finger"] = us_per_work(layers.ifa);
    Acc assign = layers.dfa;
    assign.busy_ns += layers.ifa.busy_ns;
    rows["assign.busy_ms"] = ms_per_job(assign, traced_jobs);
    rows["route.router.us_per_finger"] = us_per_work(layers.router);
    rows["route.density.us_per_finger"] = us_per_work(layers.density);
    Acc route = layers.router;
    route.busy_ns += layers.density.busy_ns;
    rows["route.busy_ms"] = ms_per_job(route, traced_jobs);
    rows["analysis.check.us_per_finger"] = us_per_work(layers.check);
    rows["analysis.check.busy_ms"] = ms_per_job(layers.check, traced_jobs);
    rows["analysis.rules_executed"] =
        static_cast<double>(layers.rules) /
        static_cast<double>(std::max<long long>(1, layers.check.calls));
    put_common_rows(rows, generate, traced_ms, untraced_ms);
    result.stage_s["assign"] = assign.busy_ns / 1e9;
    result.stage_s["route"] = route.busy_ns / 1e9;
    result.stage_s["analysis"] = layers.check.busy_ns / 1e9;
  } else {
    // Quality of the first cycle's designs, scored outside the loop with
    // the sign-off calls a user would run next (mesh-32 IR, bonding,
    // Eq. (3)).
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (first_digest[i].empty()) continue;
      const fp::Package& package =
          packages[static_cast<std::size_t>(jobs[i].package)];
      const fp::PackageAssignment& a = first_output[i].assignment;
      result.quality.add(
          eq3_cost(package, a),
          fp::analyze_ir(package, a, fp::PowerGridSpec{}).max_drop_v,
          first_output[i].max_density, fp::analyze_bonding(package, a).omega);
    }
  }

  if (!config.fill) {
    const std::uint64_t golden_seed =
        config.golden != nullptr ? config.golden->default_seed : config.seed;
    Acc unused;
    const std::vector<fp::Package> golden_packages =
        golden_seed == config.seed
            ? std::move(packages)
            : make_packages(golden_seed, dir + "/golden", unused);
    std::vector<std::string> golden;
    for (const PlanJob& job : canonical_jobs()) {
      try {
        golden.push_back(
            plan(golden_packages[static_cast<std::size_t>(job.package)],
                 job.dfa, scratch, off)
                .digest);
      } catch (const std::exception& error) {
        golden.push_back(std::string("error: ") + error.what());
      }
    }
    check_golden(config, "plan_large", golden, result);
  }
  return result;
}

}  // namespace perfbench
