// Generic simulated-annealing driver (Kirkpatrick et al. [7], as cited by
// the paper's Fig. 14).
//
// Note on fidelity: Fig. 14 line 12 accepts an uphill move when
// "Random(0,1) > exp(-dC/T)", which inverts the Metropolis criterion and
// would accept *more* moves the worse they are. We implement the standard
// criterion (accept when Random(0,1) < exp(-dC/T)); the pseudocode is
// evidently a typo since the paper cites [7] for the algorithm.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace fp {

struct SaSchedule {
  double initial_temperature = 1.0;
  double final_temperature = 1e-4;
  /// Geometric cooling factor in (0, 1).
  double cooling = 0.98;
  /// Proposals attempted at each temperature.
  int moves_per_temperature = 64;
  std::uint64_t seed = 1;
  /// Independent annealing replicas run by multi-start drivers (the flow's
  /// exchange stage, `fpkit ... --restarts N`). Replica i is seeded
  /// seed + i and runs the full schedule; the lowest final Eq.-(3) cost
  /// wins, ties broken by the lowest replica index, so the winner is the
  /// same at every thread count. 1 = plain single-run annealing.
  int restarts = 1;
  /// Prefix for every metric and trace-counter name this run emits
  /// ("sa" -> "sa.runs", "sa.cooling", ...). Multi-start drivers set
  /// "sa.replica<i>" per replica so concurrent replicas never alias one
  /// another's counters; the winner's numbers are re-exported under the
  /// plain "sa." names afterwards (see ExchangeOptimizer).
  std::string metric_prefix = "sa";
  /// Cooperative deadline polled every temperature step and every 64
  /// proposals; on expiry the run stops with its best-so-far state and
  /// AnnealResult::stop = BudgetExpired. Non-owning; null = unlimited.
  const CancelToken* cancel = nullptr;
};

/// Why the annealing loop ended.
enum class AnnealStop {
  Completed,      // full cooling schedule ran
  BudgetExpired,  // SaSchedule::cancel fired: best-so-far state returned
  FaultInjected,  // the "sa.step" fault site fired (resilience tests)
};

[[nodiscard]] std::string_view to_string(AnnealStop stop);

struct AnnealResult {
  double initial_cost = 0.0;
  double final_cost = 0.0;
  double best_cost = 0.0;
  long long proposed = 0;
  long long accepted = 0;
  long long rejected_illegal = 0;
  int temperature_steps = 0;
  /// Completed on the healthy path; BudgetExpired/FaultInjected when the
  /// run degraded to its best-so-far state (the caller's state is still a
  /// legal configuration -- every accepted move kept the invariants).
  AnnealStop stop = AnnealStop::Completed;
};

class Annealer {
 public:
  explicit Annealer(SaSchedule schedule);

  /// Runs the schedule; on return the caller's state holds the last
  /// accepted configuration. `propose(Rng&)` samples a move and returns
  /// the total cost the caller's state would have after it, as
  /// std::optional<double>, or nullopt when the sampled move is illegal;
  /// either way it leaves the state as it found it. `commit()` applies the
  /// most recent proposal and runs only when that proposal is accepted,
  /// so a rejected move costs no write and needs no undo. Both are called
  /// directly, so the proposal loop inlines them.
  template <typename Propose, typename Commit>
  AnnealResult run(double initial_cost, Propose&& propose,
                   Commit&& commit) const;

 private:
  /// Telemetry names and the progress total, fixed for one run.
  struct RunTelemetry {
    std::string cooling_series;
    long long total_steps = 0;
  };

  [[nodiscard]] RunTelemetry start_run() const;
  /// Budget and fault gates plus the per-step telemetry of one
  /// temperature step; false when the run must stop (result.stop says
  /// why).
  bool begin_step(const RunTelemetry& telemetry, double temperature,
                  double cost, AnnealResult& result) const;
  void finish_run(const AnnealResult& result) const;

  SaSchedule schedule_;
};

template <typename Propose, typename Commit>
AnnealResult Annealer::run(double initial_cost, Propose&& propose,
                           Commit&& commit) const {
  const obs::ScopedSpan span(schedule_.metric_prefix + ".anneal", "exchange");
  const RunTelemetry telemetry = start_run();
  Rng rng(schedule_.seed);
  AnnealResult result;
  result.initial_cost = initial_cost;
  result.best_cost = initial_cost;

  double cost = initial_cost;
  for (double temperature = schedule_.initial_temperature;
       temperature > schedule_.final_temperature;
       temperature *= schedule_.cooling) {
    if (!begin_step(telemetry, temperature, cost, result)) break;
    for (int i = 0; i < schedule_.moves_per_temperature; ++i) {
      // Inner-loop budget poll, every 64 proposals so huge
      // moves_per_temperature settings still honour the deadline.
      if (schedule_.cancel && (result.proposed & 63) == 0 &&
          schedule_.cancel->expired()) {
        result.stop = AnnealStop::BudgetExpired;
        break;
      }
      ++result.proposed;
      const std::optional<double> new_cost = propose(rng);
      if (!new_cost.has_value()) {
        ++result.rejected_illegal;
        continue;
      }
      const double delta = *new_cost - cost;
      bool accept = delta <= 0.0;
      if (!accept) {
        // Metropolis: accept when u < exp(x). Below x = -40, exp(x) is
        // under 2^-57 while every nonzero u is at least 2^-53, so only
        // u == 0 can pass, and only then is exp worth its cost.
        const double x = -delta / temperature;
        const double u = rng.uniform();
        accept = (x >= -40.0 || u == 0.0) && u < std::exp(x);
      }
      if (accept) {
        ++result.accepted;
        cost = *new_cost;
        result.best_cost = std::min(result.best_cost, cost);
        commit();
      }
    }
    if (result.stop != AnnealStop::Completed) break;
  }
  result.final_cost = cost;
  finish_run(result);
  return result;
}

}  // namespace fp
