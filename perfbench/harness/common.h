// Shared machinery of the fpkit end-to-end benchmark (README.md): the
// run configuration, the in-memory span recorder of the traced run, the
// per-layer accumulators, output digests and the result every workload
// hands back to main.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "package/assignment.h"
#include "package/circuit_generator.h"
#include "package/package.h"

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Golden output digests of the default seed, one list per workload
/// (golden.json).
struct Golden {
  std::uint64_t default_seed = 1;
  /// Never used while tuning the benchmark or a change; re-check claims
  /// on it (README.md, "Seeds").
  std::uint64_t held_out_seed = 4099;
  std::map<std::string, std::vector<std::string>> digests;
};

/// Set-up runs this many times per run; setup_s is the median. One
/// set-up takes 10-20 ms and single ones within a run vary by up to
/// 1.5x, so the median needs many.
inline constexpr int kSetupRepeats = 31;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop the measured loop after this many jobs (0 = time-bound only);
  /// the smoke mode and the short fill-in replays set it.
  long long max_jobs = 0;
  /// A fill-in replay (see main.cpp): no set-up repeats, no golden pass.
  bool fill = false;
  std::string out_dir;
  const Golden* golden = nullptr;
  /// Collect the golden digests instead of checking them.
  bool record_golden = false;
};

/// Time and work of one layer row group ("assign.dfa", "power", ...).
struct Acc {
  double busy_ns = 0.0;
  double work = 0.0;
  long long calls = 0;
};

/// In-memory span recorder. Spans are kept as (name, category, begin,
/// end, depth) and written out once, as a Chrome trace that
/// `fpkit dash --profile` reads. Disabled recorders drop every span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(now_ns()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void record(const char* name, const char* category, std::int64_t begin,
              std::int64_t end, int depth);
  /// Writes {"traceEvents": [...]} with integer-microsecond "X" events.
  void write_chrome_trace(const std::string& path,
                          const std::string& thread_name) const;

 private:
  struct Span {
    const char* name;
    const char* category;
    std::int64_t begin;
    std::int64_t end;
    int depth;
  };
  bool enabled_;
  std::int64_t origin_;
  std::vector<Span> spans_;
};

/// Runs `f` as one call into a layer: its wall time and `work` land in
/// `acc`, and a depth-1 span (child of the current job) in `tracer`.
template <class F>
auto layer_call(Tracer& tracer, Acc& acc, const char* name,
                const char* category, double work, F&& f) {
  const std::int64_t begin = now_ns();
  auto result = f();
  const std::int64_t end = now_ns();
  tracer.record(name, category, begin, end, 1);
  acc.busy_ns += static_cast<double>(end - begin);
  acc.work += work;
  ++acc.calls;
  return result;
}

/// FNV-1a over the bytes of every value fed in; doubles by bit pattern,
/// so "same digest" means bit-identical outputs.
class Digest {
 public:
  Digest& add(std::uint64_t value);
  Digest& add(double value);
  Digest& add(int value) { return add(static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(value))); }
  Digest& add(std::string_view text);
  Digest& add(const fp::PackageAssignment& assignment);
  [[nodiscard]] std::string hex() const;

 private:
  void bytes(const void* data, std::size_t size);
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Quality of the returned designs: sums over the workload's scored job
/// set (its first cycle, deterministic for a fixed seed); main.cpp
/// reports the means.
struct Quality {
  double eq3_cost = 0.0;
  double ir_drop_mv = 0.0;
  double max_density = 0.0;
  double omega = 0.0;
  int designs = 0;

  void add(double eq3, double ir_drop_v, double density, double bits) {
    eq3_cost += eq3;
    ir_drop_mv += ir_drop_v * 1e3;
    max_density += density;
    omega += bits;
    ++designs;
  }
};

struct WorkloadResult {
  std::vector<double> setup_s;  // one entry per set-up repetition
  std::vector<double> job_ms;   // measured job latencies (untraced run)
  double loop_s = 0.0;          // wall time of the measured loop
  /// Peak RSS when the measured loop ended, before scoring and the
  /// golden pass (peak_rss_mb()).
  double peak_rss_mb = 0.0;
  long long attempted = 0;
  long long failed = 0;
  Quality quality;
  /// Human-only extras ("swaps_per_s", ...), printed but not gated.
  std::map<std::string, double> extra;
  /// Per-layer rows this run measured (traced runs).
  std::map<std::string, double> rows;
  /// Per-layer busy seconds, written as manifest stages.
  std::map<std::string, double> stage_s;
  /// The first few correctness failures, for the log.
  std::vector<std::string> errors;
  /// Digests of the golden job set (record_golden runs).
  std::vector<std::string> golden;

  void fail(const std::string& what);
};

/// Checks the golden digests of `workload` against `got`; every
/// mismatch (or a missing entry) is a failure of `result`.
void check_golden(const RunConfig& config, const std::string& workload,
                  const std::vector<std::string>& got,
                  WorkloadResult& result);

/// Peak resident set of this process image so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median / linear-interpolated quantile of a sample (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);

/// splitmix64 step: derives independent sub-seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Generates `spec`, writes it as a .fp file under `dir`, and reads it
/// back -- the `fpkit generate` + load path a user's job starts from.
/// The generate time is added to `generate`.
[[nodiscard]] fp::Package make_package(const fp::CircuitSpec& spec,
                                       const std::string& dir, Acc& generate);

/// A Table-1 circuit as a 2-tier stacking design (`fpkit generate
/// --table1 <index+1> --tiers 2`).
[[nodiscard]] fp::CircuitSpec table1_stacked(int index);

/// Eq.-(3) cost of `assignment` scored against itself as the Eq.-(2)
/// baseline, with the exchange defaults (lambda 20, rho 2, phi 1).
[[nodiscard]] double eq3_cost(const fp::Package& package,
                              const fp::PackageAssignment& assignment);

/// Per-job means: `acc.busy_ns` in ms per job.
[[nodiscard]] inline double ms_per_job(const Acc& acc, long long jobs) {
  return jobs > 0 ? acc.busy_ns / 1e6 / static_cast<double>(jobs) : 0.0;
}
/// Busy microseconds per unit of work.
[[nodiscard]] inline double us_per_work(const Acc& acc) {
  return acc.work > 0.0 ? acc.busy_ns / 1e3 / acc.work : 0.0;
}

/// Power-layer accumulator: solves, busy time and iterations by mesh k.
struct PowerAcc {
  Acc time;
  long long solves = 0;
  long long fallbacks = 0;  // extra solver attempts beyond the first
  double node_iterations = 0.0;
  std::map<int, std::pair<long long, long long>> iters_by_k;  // solves, iters

  void add_solve(int k, int iterations, int attempts);
  /// power.* rows, normalised by `jobs`.
  void put_rows(std::map<std::string, double>& rows, long long jobs) const;
};

/// Rows every traced replay reports: package.generate_ms and
/// trace.overhead_ratio (trace.coverage is derived from the written trace
/// in main.cpp).
void put_common_rows(std::map<std::string, double>& rows,
                     const Acc& generate,
                     const std::vector<double>& traced_job_ms,
                     const std::vector<double>& untraced_job_ms);

}  // namespace perfbench
