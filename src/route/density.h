// Pre-routing wire-congestion estimation (Section 2.3 of the paper).
//
// Density is "the wire count between two continuous vias": every horizontal
// bump line of a quadrant is cut into gaps by its candidate via slots, and
// the density of a gap is the number of nets whose monotonic route crosses
// the line inside that gap. A net terminating on a line passes through its
// own via slot and contributes to no gap of that line; every net bound for
// a deeper (outward) line must cross through exactly one gap.
//
// Monotonicity pins each crossing net to a *window* of gaps -- the gaps
// between the via slots of its flanking same-line terminating nets in
// finger order. Within a window the router may pick any gap; DensityMap
// models the two standard choices:
//   * Balanced -- spread the window's nets evenly over its gaps (what an
//     iterative-improvement router converges to; the default).
//   * Nearest  -- each net takes the window gap nearest its descent from the
//     previous line (a greedy one-pass router; used by the ablation bench).
//
// Cost: O(rows * n) per quadrant of n fingers. Every row is one scan of
// the finger order with a cursor over the row's terminating nets (legality
// keeps them in bump order), so each crossing net learns its window
// without a search; the per-net storage is one rows x n table.
#pragma once

#include <cstddef>
#include <vector>

#include "package/assignment.h"
#include "package/quadrant.h"
#include "route/via_plan.h"

namespace fp {

enum class CrossingStrategy { Balanced, Nearest };

/// Per-row, per-gap crossing counts for one quadrant under one assignment.
class DensityMap {
 public:
  /// Computes the full congestion map under the paper's default
  /// bottom-left via plan. Requires a monotonically legal assignment
  /// (throws InvalidArgument otherwise).
  DensityMap(const Quadrant& quadrant, const QuadrantAssignment& assignment,
             CrossingStrategy strategy = CrossingStrategy::Balanced);

  /// Same under an explicit via plan (see via_plan.h); the plan must be
  /// legal for the quadrant.
  DensityMap(const Quadrant& quadrant, const QuadrantAssignment& assignment,
             const QuadrantViaPlan& plan,
             CrossingStrategy strategy = CrossingStrategy::Balanced);

  [[nodiscard]] int row_count() const {
    return static_cast<int>(gap_counts_.size());
  }

  /// Crossing-net count of gap `gap` on row `row`. Gap g lies between via
  /// slots g-1 and g; gap 0 is left of slot 0.
  [[nodiscard]] int gap_density(int row, int gap) const;

  /// All gap densities of one row.
  [[nodiscard]] const std::vector<int>& row_densities(int row) const;

  /// Hottest gap of one row.
  [[nodiscard]] int row_max(int row) const;

  /// The paper's "maximum density": hottest gap over the whole quadrant.
  [[nodiscard]] int max_density() const;

  /// Sum over rows of crossing nets (for conservation checks in tests).
  [[nodiscard]] long long total_crossings() const;

  /// Gap used by `net` when crossing row `row`; -1 when the net does not
  /// cross that row (it terminates there or deeper).
  [[nodiscard]] int crossing_gap(NetId net, int row) const;

 private:
  const Quadrant* quadrant_;
  std::vector<std::vector<int>> gap_counts_;  // [row][gap]
  std::vector<int> crossing_gap_of_net_;      // [row * id_span_ + net-min_id]
  NetId min_id_ = 0;
  std::size_t id_span_ = 0;
};

}  // namespace fp
