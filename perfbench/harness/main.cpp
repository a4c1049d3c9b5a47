// fpkit end-to-end benchmark harness (README.md).
//
//   fpkit_perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//                   [--out <dir>] [--golden <file>] [--write-golden <file>]
//                   [--smoke] [--list-metrics]
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// replays the workload with spans around every layer call and reports the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output checked out, 1 on a correctness
// failure, 2 on bad arguments or an unreadable golden file.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/artifact.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "util/cli.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
};

/// End-to-end metrics, reported by every untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"jobs_per_s", "1/s", "higher"},
    {"job_ms_p50", "ms", "lower"},
    {"job_ms_p90", "ms", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
    {"eq3_cost", "cost", "lower"},
    {"ir_drop_mv", "mV", "lower"},
    {"max_density", "nets", "lower"},
    {"omega", "bits", "lower"},
};

/// Per-layer metrics, reported by every traced run.
constexpr MetricDef kPerLayer[] = {
    {"package.generate_ms", "ms", "lower"},
    {"assign.dfa.us_per_finger", "us/finger", "lower"},
    {"assign.ifa.us_per_finger", "us/finger", "lower"},
    {"assign.busy_ms", "ms/job", "lower"},
    {"route.router.us_per_finger", "us/finger", "lower"},
    {"route.density.us_per_finger", "us/finger", "lower"},
    {"route.busy_ms", "ms/job", "lower"},
    {"power.solves", "solves/job", "lower"},
    {"power.busy_ms", "ms/job", "lower"},
    {"power.ns_per_node_iter", "ns", "lower"},
    {"power.fallback_ratio", "ratio", "lower"},
    {"power.iters_per_solve.k32", "iters", "lower"},
    {"power.iters_per_solve.k48", "iters", "lower"},
    {"power.iters_per_solve.k64", "iters", "lower"},
    {"power.iters_per_solve.k96", "iters", "lower"},
    {"power.iters_per_solve.k128", "iters", "lower"},
    {"exchange.proposals", "proposals/job", "lower"},
    {"exchange.us_per_proposal", "us", "lower"},
    {"exchange.accept_ratio", "ratio", "higher"},
    {"exchange.illegal_ratio", "ratio", "lower"},
    {"exchange.busy_ms", "ms/job", "lower"},
    {"stack.bonding.us_per_call", "us", "lower"},
    {"analysis.check.us_per_finger", "us/finger", "lower"},
    {"analysis.check.busy_ms", "ms/job", "lower"},
    {"analysis.rules_executed", "rules/check", "lower"},
    {"analysis.cache_hit_ratio", "ratio", "higher"},
    {"session.swap_us", "us", "lower"},
    {"session.evaluate_ms_p50", "ms", "lower"},
    {"session.warm_ratio", "ratio", "higher"},
    {"session.density_reuse_ratio", "ratio", "higher"},
    {"serve.swap_overhead_us", "us", "lower"},
    {"obs.metrics_overhead_ratio", "ratio", "lower"},
    {"trace.overhead_ratio", "ratio", "lower"},
    {"trace.coverage", "ratio", "higher"},
};

using Runner = WorkloadResult (*)(const RunConfig&, Tracer&);

/// Workloads in fill order: a traced run takes each per-layer row its own
/// workload does not measure from the first of these that does.
const std::vector<std::pair<std::string, Runner>>& workloads() {
  static const std::vector<std::pair<std::string, Runner>> all = {
      {"flow_table1", &run_flow_table1},
      {"signoff_mesh", &run_signoff_mesh},
      {"plan_large", &run_plan_large},
      {"serve_stream", &run_serve_stream},
  };
  return all;
}

Golden load_golden(const std::string& path) {
  Golden golden;
  const fp::obs::Json doc = fp::obs::json_load(path);
  golden.default_seed =
      static_cast<std::uint64_t>(doc.at("default_seed").as_number());
  golden.held_out_seed =
      static_cast<std::uint64_t>(doc.at("held_out_seed").as_number());
  for (const auto& [name, list] : doc.at("digests").fields()) {
    for (const fp::obs::Json& item : list.items()) {
      golden.digests[name].push_back(item.as_string());
    }
  }
  return golden;
}

void save_golden(const std::string& path, const Golden& golden) {
  fp::obs::Json doc = fp::obs::Json::object();
  doc.set("default_seed", fp::obs::Json::number(
                              static_cast<long long>(golden.default_seed)));
  doc.set("held_out_seed", fp::obs::Json::number(
                               static_cast<long long>(golden.held_out_seed)));
  fp::obs::Json digests = fp::obs::Json::object();
  for (const auto& [name, list] : golden.digests) {
    fp::obs::Json items = fp::obs::Json::array();
    for (const std::string& d : list) items.push(fp::obs::Json::string(d));
    digests.set(name, std::move(items));
  }
  doc.set("digests", std::move(digests));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw fp::IoError("cannot write " + path);
  std::fprintf(f, "%s\n", doc.dump().c_str());
  std::fclose(f);
}

/// Share of traced job time that falls inside layer spans, read back
/// from the written trace with the repository's own profiler.
double trace_coverage(const std::string& path) {
  const fp::obs::TraceProfile profile =
      fp::obs::profile_trace(fp::obs::load_chrome_trace(path));
  double total = 0.0;
  double self = 0.0;
  for (const fp::obs::ProfileEntry& e : profile.entries) {
    if (e.category != "job") continue;
    total += e.total_us;
    self += e.self_us;
  }
  return total > 0.0 ? 1.0 - self / total : 0.0;
}

std::map<std::string, double> end_to_end(const WorkloadResult& r) {
  std::map<std::string, double> m;
  m["setup_s"] = median(r.setup_s);
  m["jobs_per_s"] = static_cast<double>(r.job_ms.size()) / r.loop_s;
  m["job_ms_p50"] = quantile(r.job_ms, 0.5);
  m["job_ms_p90"] = quantile(r.job_ms, 0.9);
  m["peak_rss_mb"] = r.peak_rss_mb;
  const Quality& q = r.quality;
  const double designs = q.designs > 0 ? q.designs : 1.0;
  m["eq3_cost"] = q.eq3_cost / designs;
  m["ir_drop_mv"] = q.ir_drop_mv / designs;
  m["max_density"] = q.max_density / designs;
  m["omega"] = q.omega / designs;
  return m;
}

int run(const fp::ArgParser& args) {
  if (args.has("list-metrics")) {
    for (const MetricDef& d : kEndToEnd) {
      std::printf("end_to_end %s %s %s\n", d.name, d.unit, d.better);
    }
    for (const MetricDef& d : kPerLayer) {
      std::printf("per_layer %s %s %s\n", d.name, d.unit, d.better);
    }
    return 0;
  }

  RunConfig config;
  config.workload = args.get_string("workload", "");
  Runner runner = nullptr;
  for (const auto& [name, fn] : workloads()) {
    if (name == config.workload) runner = fn;
  }
  if (runner == nullptr) {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.seconds = args.get_double("seconds", 10.0);
  config.trace = args.get_int("trace", 0) != 0;
  const bool smoke = args.has("smoke");
  if (smoke) config.max_jobs = 6;
  config.out_dir = args.get_string(
      "out", "perfbench/out/" + config.workload + "-seed" +
                 std::to_string(config.seed) +
                 (config.trace ? "-trace" : ""));
  std::filesystem::create_directories(config.out_dir);

  const std::string write_golden = args.get_string("write-golden", "");
  Golden golden;
  if (!write_golden.empty()) {
    if (std::filesystem::exists(write_golden)) {
      golden = load_golden(write_golden);
    }
    config.record_golden = true;
    config.seed = golden.default_seed;
  } else {
    golden = load_golden(args.get_string("golden", "perfbench/golden.json"));
  }
  config.golden = &golden;

  const std::int64_t begin = now_ns();
  Tracer tracer(config.trace);
  WorkloadResult result = runner(config, tracer);
  long long attempted = result.attempted;
  long long failed = result.failed;
  std::vector<std::string> errors = result.errors;

  // Metric values by name, plus where each per-layer row came from.
  std::map<std::string, double> values;
  std::map<std::string, std::string> source;
  if (config.trace) {
    const std::string trace_path = config.out_dir + "/trace.json";
    values = result.rows;
    for (const auto& [name, value] : values) source[name] = config.workload;
    tracer.write_chrome_trace(trace_path, "perfbench " + config.workload);
    values["trace.coverage"] = trace_coverage(trace_path);
    source["trace.coverage"] = config.workload;
    // Rows this workload does not exercise come from a short replay of
    // the first workload that does (README.md, "Per-layer metrics").
    for (const auto& [name, fn] : workloads()) {
      if (name == config.workload) continue;
      const bool missing = std::any_of(
          std::begin(kPerLayer), std::end(kPerLayer),
          [&](const MetricDef& d) { return !values.count(d.name); });
      if (!missing) break;
      RunConfig fill = config;
      fill.workload = name;
      fill.fill = true;
      fill.max_jobs = 0;
      fill.out_dir = config.out_dir + "/fill-" + name;
      Tracer off(false);
      const WorkloadResult filled = fn(fill, off);
      attempted += filled.attempted;
      failed += filled.failed;
      errors.insert(errors.end(), filled.errors.begin(), filled.errors.end());
      for (const auto& [row, value] : filled.rows) {
        if (values.emplace(row, value).second) source[row] = name;
      }
    }
  } else {
    values = end_to_end(result);
  }
  const double wall_s = static_cast<double>(now_ns() - begin) / 1e9;

  if (config.record_golden) {
    golden.digests[config.workload] = result.golden;
    save_golden(write_golden, golden);
    std::printf("perfbench: wrote %zu golden digest(s) of %s to %s\n",
                result.golden.size(), config.workload.c_str(),
                write_golden.c_str());
  }

  // Every metric of the mode must be present and finite.
  const std::span<const MetricDef> defs =
      config.trace ? std::span<const MetricDef>(kPerLayer)
                   : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      ++failed;
      errors.push_back(std::string("metric ") + d.name + " was not measured");
    }
  }
  if (attempted < 1) attempted = 1;
  const bool correct = failed == 0;

  // Ledger: an fpkit.run.v1 manifest `fpkit compare` / `fpkit dash` read.
  fp::obs::RunManifest manifest;
  manifest.subcommand = "perfbench." + config.workload;
  manifest.version = std::string(fp::obs::kToolVersion);
  manifest.threads = 1;
  manifest.seeds = {config.seed};
  manifest.wall_s = wall_s;
  manifest.exit_code = correct ? 0 : 1;
  fp::obs::Json options = fp::obs::Json::object();
  options.set("workload", fp::obs::Json::string(config.workload));
  options.set("seconds", fp::obs::Json::number(config.seconds));
  options.set("trace", fp::obs::Json::boolean(config.trace));
  manifest.options = std::move(options);
  if (config.trace) {
    for (const auto& [stage, seconds] : result.stage_s) {
      manifest.stages.push_back(fp::obs::ManifestStage{stage, seconds});
    }
  } else {
    manifest.stages.push_back(
        fp::obs::ManifestStage{"setup", median(result.setup_s)});
    manifest.stages.push_back(
        fp::obs::ManifestStage{"loop", result.loop_s});
  }
  for (const auto& [name, value] : values) {
    if (std::isfinite(value)) manifest.results[name] = value;
  }
  manifest.results["fail_ratio"] =
      static_cast<double>(failed) / static_cast<double>(attempted);
  for (const auto& [name, value] : result.extra) {
    manifest.results[name] = value;
  }
  fp::obs::capture_environment(manifest);
  fp::obs::write_manifest_into(config.out_dir, manifest);

  // Human-readable summary, then the one-line JSON result.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d -> %s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.out_dir.c_str());
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) continue;
    const auto from = source.find(d.name);
    const std::string filled =
        from != source.end() && from->second != config.workload
            ? " [from " + from->second + "]"
            : "";
    std::printf("  %-30s %14.6g %-13s (%s is better)%s\n", d.name,
                it->second, d.unit, d.better, filled.c_str());
  }
  std::printf("  %-30s %14.6g %-13s (lower is better)\n", "fail_ratio",
              manifest.results["fail_ratio"], "ratio");
  for (const auto& [name, value] : result.extra) {
    std::printf("  %-30s %14.6g\n", name.c_str(), value);
  }
  if (!config.trace) {
    const double p90 = values["job_ms_p90"];
    const auto tail = std::count_if(result.job_ms.begin(),
                                    result.job_ms.end(),
                                    [p90](double ms) { return ms > p90; });
    std::printf("  jobs=%zu (%ld beyond p90)%s\n", result.job_ms.size(),
                static_cast<long>(tail),
                tail < 10 && !smoke ? " -- fewer than 10: lengthen the run"
                                    : "");
  }
  for (const std::string& e : errors) {
    std::printf("  FAIL: %s\n", e.c_str());
  }

  fp::obs::Json metrics = fp::obs::Json::object();
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() || !std::isfinite(it->second)) continue;
    fp::obs::Json m = fp::obs::Json::object();
    m.set("value", fp::obs::Json::number(it->second));
    m.set("unit", fp::obs::Json::string(d.unit));
    metrics.set(d.name, std::move(m));
  }
  fp::obs::Json line = fp::obs::Json::object();
  line.set("correct", fp::obs::Json::boolean(correct));
  line.set("attempted", fp::obs::Json::number(attempted));
  line.set("failed", fp::obs::Json::number(failed));
  line.set("metrics", std::move(metrics));
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(fp::ArgParser(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
