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
#include <vector>

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
  /// When > 0, one (temperature, cost) sample is recorded every
  /// `record_every` temperature steps (for convergence plots).
  int record_every = 0;
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

/// One point of the recorded cooling curve.
///
/// Back-compat shim: the canonical sink for cooling-curve samples is now
/// the observability layer (metrics series "sa.cooling" and trace counter
/// "sa", see obs/metrics.h and docs/OBSERVABILITY.md); AnnealResult::trace
/// is kept so existing callers of record_every keep working.
struct AnnealSample {
  double temperature = 0.0;
  double cost = 0.0;
  long long accepted = 0;
};

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
  /// Non-empty when SaSchedule::record_every > 0.
  std::vector<AnnealSample> trace;
};

class Annealer {
 public:
  explicit Annealer(SaSchedule schedule);

  /// Runs the schedule; on return the caller's state holds the last
  /// accepted configuration. `try_move(Rng&)` is a move proposal: it
  /// perturbs the caller's state in place and returns the new total cost
  /// as std::optional<double>, or nullopt when the sampled move is illegal
  /// (state unchanged). `undo()` reverts the last successful try_move.
  /// Both are called directly, so the proposal loop inlines them.
  template <typename TryMove, typename Undo>
  AnnealResult run(double initial_cost, TryMove&& try_move,
                   Undo&& undo) const;

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

template <typename TryMove, typename Undo>
AnnealResult Annealer::run(double initial_cost, TryMove&& try_move,
                           Undo&& undo) const {
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
      const std::optional<double> new_cost = try_move(rng);
      if (!new_cost.has_value()) {
        ++result.rejected_illegal;
        continue;
      }
      const double delta = *new_cost - cost;
      const bool accept =
          delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature);
      if (accept) {
        ++result.accepted;
        cost = *new_cost;
        result.best_cost = std::min(result.best_cost, cost);
      } else {
        undo();
      }
    }
    if (result.stop != AnnealStop::Completed) break;
  }
  result.final_cost = cost;
  finish_run(result);
  return result;
}

}  // namespace fp
