// Incremental evaluation of the Eq.-(3) cost under adjacent finger swaps.
//
// The SA loop proposes tens of thousands of adjacent swaps; recomputing
// dispersion, ID and omega from scratch costs O(alpha) each. Every term
// changes only locally under an adjacent swap, so scoring a swap
// (cost_after_swap) and applying it (apply_swap) cost O(1) (O(psi) for
// omega) and allocate nothing:
//   * supply dispersion -- only when exactly one swapped net is a supply
//     net: that pad moves by one slot inside its quadrant, so the cyclic
//     order of the pads, and its two neighbours in it, stay the same and
//     only its two gaps change (O(1));
//   * ID (Eq. 2)        -- only when exactly one swapped net is a top-row
//     net: one signal net crosses that section boundary, shifting one
//     unit of load between two adjacent sections; a count-per-delta
//     histogram gives the new max by a case analysis of those two
//     sections (O(1));
//   * omega             -- only when the swap straddles a psi-group
//     boundary: the two touched groups' unions are rebuilt from the
//     per-position tier bits with the two bits exchanged (O(psi)).
// cost_after_swap is a pure peek: it computes the post-swap value
// without writing anything, and is bit-identical to apply_swap followed
// by current(). There is no undo: a rejected proposal is simply never
// applied, and an adjacent swap is its own inverse, so applying the same
// swap again restores the previous state exactly.
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

  /// Eq.-(3) value after swapping fingers (left, left+1) of `quadrant`,
  /// without applying the swap: bit-identical to apply_swap followed by
  /// current(), and the object is unchanged. Same preconditions as
  /// apply_swap.
  [[nodiscard]] double cost_after_swap(int quadrant, int left_finger) const;

  /// Applies the swap of fingers (left, left+1) of `quadrant`; the caller
  /// guarantees monotone legality (as in the optimizer's move filter).
  /// Applying the same swap again reverts it.
  void apply_swap(int quadrant, int left_finger);

  /// The evolving order (the optimizer reads its moves from it).
  [[nodiscard]] const PackageAssignment& assignment() const {
    return current_;
  }

 private:
  /// Everything a swap changes, computed from the pre-swap state.
  struct SwapEffect {
    int position = 0;       // ring position of the left finger
    int supply_slot = -1;   // slot of the one supply pad that moves, or -1
    int supply_to = 0;      // that pad's new ring position
    long long gap_sum_sq = 0;
    int section_up = -1;    // Eq.-(2) section gaining one unit, or -1
    int section_down = -1;  // Eq.-(2) section losing one unit
    int max_delta = 0;
    bool straddles = false;  // the swap crosses a psi-group boundary
    std::uint32_t union_left = 0;   // new union of the left group
    std::uint32_t union_right = 0;  // new union of the right group
    int omega = 0;
  };

  [[nodiscard]] SwapEffect effect_of(int quadrant, int left_finger) const;
  [[nodiscard]] double dispersion_of(long long gap_sum_sq) const;
  [[nodiscard]] double cost_of(long long gap_sum_sq, int max_delta,
                               int omega) const;
  [[nodiscard]] std::uint32_t group_union(int group, int position,
                                          std::uint32_t bit) const;
  [[nodiscard]] int zero_bits(std::uint32_t group_union) const;

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
};

}  // namespace fp
