// Incremental evaluation of the Eq.-(3) cost under adjacent finger swaps.
//
// The SA loop proposes tens of thousands of adjacent swaps; recomputing
// dispersion, ID and omega from scratch costs O(alpha) each. Every term
// changes only locally under an adjacent swap, so apply_swap/undo_last
// cost O(1) (O(psi) for omega) and allocate nothing:
//   * supply dispersion -- only when exactly one swapped net is a supply
//     net: that pad moves by one slot inside its quadrant, so the cyclic
//     order of the pads, and its two neighbours in it, stay the same and
//     only its two gaps change (O(1));
//   * ID (Eq. 2)        -- only when exactly one swapped net is a top-row
//     net: one signal net crosses that section boundary, shifting one
//     unit of load between two adjacent sections; a count-per-delta
//     histogram keeps the max, which moves by at most one step (O(1));
//   * omega             -- only when the swap straddles a psi-group
//     boundary: the two touched groups' unions are rebuilt from the
//     per-position tier bits (O(psi)).
// The class owns its copy of the evolving order; drive it with the same
// swap stream as the optimizer. Equivalence with the full recomputation
// (bit-identical values) is property-tested over random legal swap
// sequences.
#pragma once

#include <cstdint>
#include <vector>

#include "package/assignment.h"
#include "package/package.h"

namespace fp {

class IncrementalCost {
 public:
  /// `initial` is both the starting order and the Eq.-(2) baseline (the
  /// same object the optimizer scores against).
  IncrementalCost(const Package& package, const PackageAssignment& initial,
                  double lambda, double rho, double phi);

  /// Current Eq.-(3) value (Proxy IR mode).
  [[nodiscard]] double current() const;

  /// Individual terms, for tests and reporting.
  [[nodiscard]] double dispersion() const;
  [[nodiscard]] int increased_density() const;
  [[nodiscard]] int omega() const { return omega_; }

  /// Applies the swap of fingers (left, left+1) of `quadrant`; the caller
  /// guarantees monotone legality (as in the optimizer's move filter).
  void apply_swap(int quadrant, int left_finger);

  /// Reverts the most recent un-undone apply_swap (depth 1; an adjacent
  /// swap is an involution, so deeper undo is re-applying the same swap).
  void undo_last();

  /// The evolving order (for cross-checks).
  [[nodiscard]] const PackageAssignment& assignment() const {
    return current_;
  }

 private:
  void swap_impl(int quadrant, int left_finger);
  void shift_load(int section, int step);
  void rebuild_group(int group);

  const Package* package_;
  double lambda_;
  double rho_;
  double phi_;
  int tier_count_;
  int alpha_;

  PackageAssignment current_;

  // --- dispersion state ---
  // Ring positions of the supply pads, ascending, and per ring position
  // the pad's slot in that list (-1 for a signal pad).
  std::vector<int> supply_pos_;
  std::vector<int> supply_slot_;
  long long gap_sum_sq_ = 0;  // exact: every gap^2 sum is below 2^53

  // --- Eq.-(2) state ---
  // Per section (quadrant-major, from section_start_) the load change
  // since the baseline, and how many sections hold each change (index
  // change + delta_offset_).
  std::vector<int> section_start_;
  std::vector<int> delta_;
  std::vector<int> delta_count_;
  int delta_offset_ = 0;
  int max_delta_ = 0;

  // --- omega state ---
  std::vector<std::uint32_t> tier_bit_;  // per ring position
  std::vector<std::uint32_t> group_union_;
  int omega_ = 0;
  std::uint32_t full_mask_ = 0;

  struct LastSwap {
    int quadrant = -1;
    int left = -1;
  } last_;
};

}  // namespace fp
