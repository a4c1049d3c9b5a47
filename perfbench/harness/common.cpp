#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "exchange/exchange.h"
#include "exchange/increased_density.h"
#include "io/circuit_file.h"
#include "obs/json.h"
#include "util/error.h"

namespace perfbench {

void Tracer::record(const char* name, const char* category,
                    std::int64_t begin, std::int64_t end, int depth) {
  if (!enabled_) return;
  spans_.push_back(Span{name, category, begin, end, depth});
}

void Tracer::write_chrome_trace(const std::string& path,
                                const std::string& thread_name) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  fp::require(out.good(), "perfbench: cannot write trace '" + path + "'");
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":"
      << fp::obs::json_quote(thread_name) << "}}";
  // Both ends floor to whole microseconds, so a child span stays inside
  // its parent after rounding (the profiler nests by containment).
  for (const Span& span : spans_) {
    const std::int64_t begin_us = (span.begin - origin_) / 1000;
    const std::int64_t end_us = (span.end - origin_) / 1000;
    out << ",{\"name\":\"" << span.name << "\",\"cat\":\"" << span.category
        << "\",\"ph\":\"X\",\"ts\":" << begin_us
        << ",\"dur\":" << (end_us - begin_us)
        << ",\"pid\":1,\"tid\":0,\"args\":{\"depth\":" << span.depth << "}}";
  }
  out << "]}\n";
  out.close();
  fp::require(!out.fail(), "perfbench: error writing trace '" + path + "'");
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ULL;
  }
}

Digest& Digest::add(std::uint64_t value) {
  bytes(&value, sizeof value);
  return *this;
}

Digest& Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return add(bits);
}

Digest& Digest::add(std::string_view text) {
  add(static_cast<std::uint64_t>(text.size()));
  bytes(text.data(), text.size());
  return *this;
}

Digest& Digest::add(const fp::PackageAssignment& assignment) {
  for (const fp::QuadrantAssignment& quadrant : assignment.quadrants) {
    add(static_cast<std::uint64_t>(quadrant.order.size()));
    for (const fp::NetId net : quadrant.order) {
      add(static_cast<std::uint64_t>(net));
    }
  }
  return *this;
}

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof text, "%016" PRIx64, state_);
  return text;
}

void WorkloadResult::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void check_golden(const RunConfig& config, const std::string& workload,
                  const std::vector<std::string>& got,
                  WorkloadResult& result) {
  if (config.record_golden) {
    result.golden = got;
    return;
  }
  if (config.golden == nullptr) {
    result.fail("golden digests missing");
    return;
  }
  const auto it = config.golden->digests.find(workload);
  if (it == config.golden->digests.end() || it->second.size() != got.size()) {
    result.fail("golden digest list of " + workload + " missing or of " +
                "another length than the golden job set (" +
                std::to_string(got.size()) + ")");
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    ++result.attempted;
    if (got[i] != it->second[i]) {
      result.fail("golden job " + std::to_string(i) + ": digest " + got[i] +
                  " != golden " + it->second[i]);
    }
  }
}

// VmHWM from /proc: reset at exec, unlike getrusage's ru_maxrss, which
// keeps the high-water mark of the process that exec'd us (the Python
// launcher).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

fp::Package make_package(const fp::CircuitSpec& spec, const std::string& dir,
                         Acc& generate) {
  const std::int64_t begin = now_ns();
  const fp::Package generated = fp::CircuitGenerator::generate(spec);
  generate.busy_ns += static_cast<double>(now_ns() - begin);
  ++generate.calls;
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + spec.name + ".fp";
  fp::save_circuit(generated, path);
  return fp::load_circuit(path);
}

fp::CircuitSpec table1_stacked(int index) {
  fp::CircuitSpec spec = fp::CircuitGenerator::table1(index);
  spec.tier_count = 2;
  return spec;
}

double eq3_cost(const fp::Package& package,
                const fp::PackageAssignment& assignment) {
  const fp::ExchangeOptimizer optimizer(package, fp::ExchangeOptions{});
  return optimizer.cost(assignment,
                        fp::IncreasedDensity(package, assignment));
}

void PowerAcc::add_solve(int k, int iterations, int attempts) {
  ++solves;
  fallbacks += std::max(0, attempts - 1);
  node_iterations += static_cast<double>(k) * k * iterations;
  auto& [count, iters] = iters_by_k[k];
  ++count;
  iters += iterations;
}

void PowerAcc::put_rows(std::map<std::string, double>& rows,
                        long long jobs) const {
  if (solves == 0 || jobs == 0) return;
  rows["power.solves"] =
      static_cast<double>(solves) / static_cast<double>(jobs);
  rows["power.busy_ms"] = ms_per_job(time, jobs);
  if (node_iterations > 0.0) {
    rows["power.ns_per_node_iter"] = time.busy_ns / node_iterations;
  }
  rows["power.fallback_ratio"] =
      static_cast<double>(fallbacks) / static_cast<double>(solves);
  for (const auto& [k, counts] : iters_by_k) {
    rows["power.iters_per_solve.k" + std::to_string(k)] =
        static_cast<double>(counts.second) /
        static_cast<double>(counts.first);
  }
}

void put_common_rows(std::map<std::string, double>& rows,
                     const Acc& generate,
                     const std::vector<double>& traced_job_ms,
                     const std::vector<double>& untraced_job_ms) {
  if (generate.calls > 0) {
    rows["package.generate_ms"] =
        generate.busy_ns / 1e6 / static_cast<double>(generate.calls);
  }
  const double untraced = median(untraced_job_ms);
  if (untraced > 0.0 && !traced_job_ms.empty()) {
    rows["trace.overhead_ratio"] = median(traced_job_ms) / untraced;
  }
}

}  // namespace perfbench
