#include "exchange/incremental_cost.h"

#include <algorithm>
#include <bit>

#include "util/error.h"

namespace fp {
namespace {

/// Squared cyclic gap from `from` to `to` on a ring of `size` slots.
long long gap_sq(int from, int to, int size) {
  long long gap = to - from;
  if (gap <= 0) gap += size;
  return gap * gap;
}

}  // namespace

IncrementalCost::IncrementalCost(const Package& package,
                                 const PackageAssignment& initial,
                                 double lambda, double rho, double phi)
    : package_(&package), lambda_(lambda), rho_(rho), phi_(phi),
      tier_count_(package.netlist().tier_count()),
      alpha_(package.finger_count()), current_(initial) {
  require(static_cast<int>(initial.quadrants.size()) ==
              package.quadrant_count(),
          "IncrementalCost: assignment/package quadrant count mismatch");
  require(tier_count_ <= 32, "IncrementalCost: too many tiers");
  full_mask_ = tier_count_ == 32 ? ~0u : ((1u << tier_count_) - 1u);

  const Netlist& netlist = package.netlist();
  const std::vector<NetId> ring = current_.ring_order();
  supply_slot_.assign(ring.size(), -1);
  tier_bit_.reserve(ring.size());
  for (std::size_t p = 0; p < ring.size(); ++p) {
    const Net& net = netlist.net(ring[p]);
    if (is_supply(net.type)) {
      supply_slot_[p] = static_cast<int>(supply_pos_.size());
      supply_pos_.push_back(static_cast<int>(p));
    }
    tier_bit_.push_back(1u << net.tier);
  }

  // --- dispersion ---
  for (std::size_t s = 0; s < supply_pos_.size(); ++s) {
    gap_sum_sq_ += gap_sq(supply_pos_[s],
                          supply_pos_[(s + 1) % supply_pos_.size()], alpha_);
  }

  // --- Eq. (2): every section starts at its baseline load ---
  int widest = 0;
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    section_start_.push_back(static_cast<int>(delta_.size()));
    delta_.resize(delta_.size() +
                  static_cast<std::size_t>(q.bumps_in_row(q.top_row()) + 1));
    widest = std::max(widest, q.finger_count());
  }
  delta_offset_ = widest;
  delta_count_.assign(static_cast<std::size_t>(2 * widest + 1), 0);
  delta_count_[static_cast<std::size_t>(delta_offset_)] =
      static_cast<int>(delta_.size());

  // --- omega: every group starts empty, missing all psi tiers ---
  const int groups = (alpha_ + tier_count_ - 1) / tier_count_;
  group_union_.assign(static_cast<std::size_t>(groups), 0);
  omega_ = groups * std::popcount(full_mask_);
  for (int g = 0; g < groups; ++g) rebuild_group(g);
}

double IncrementalCost::dispersion() const {
  if (supply_pos_.empty()) return 0.0;
  const double p = static_cast<double>(supply_pos_.size());
  const double total = static_cast<double>(alpha_);
  return static_cast<double>(gap_sum_sq_) / (total * total / p);
}

int IncrementalCost::increased_density() const {
  return std::max(0, max_delta_);
}

double IncrementalCost::current() const {
  return lambda_ * dispersion() + rho_ * increased_density() +
         phi_ * omega_;
}

void IncrementalCost::apply_swap(int quadrant, int left_finger) {
  swap_impl(quadrant, left_finger);
  last_ = LastSwap{quadrant, left_finger};
}

void IncrementalCost::undo_last() {
  require(last_.quadrant >= 0, "IncrementalCost: nothing to undo");
  swap_impl(last_.quadrant, last_.left);
  last_ = LastSwap{};
}

void IncrementalCost::shift_load(int section, int step) {
  int& delta = delta_[static_cast<std::size_t>(section)];
  --delta_count_[static_cast<std::size_t>(delta + delta_offset_)];
  delta += step;
  ++delta_count_[static_cast<std::size_t>(delta + delta_offset_)];
  // A +-1 step moves the max by at most one.
  if (delta > max_delta_) {
    max_delta_ = delta;
  } else if (delta_count_[static_cast<std::size_t>(max_delta_ +
                                                   delta_offset_)] == 0) {
    --max_delta_;
  }
}

void IncrementalCost::rebuild_group(int group) {
  auto& value = group_union_[static_cast<std::size_t>(group)];
  omega_ -= std::popcount(full_mask_ & ~value);
  value = 0;
  const int start = group * tier_count_;
  const int end = std::min(start + tier_count_, alpha_);
  for (int i = start; i < end; ++i) {
    value |= tier_bit_[static_cast<std::size_t>(i)];
  }
  omega_ += std::popcount(full_mask_ & ~value);
}

void IncrementalCost::swap_impl(int quadrant, int left_finger) {
  require(quadrant >= 0 && quadrant < package_->quadrant_count(),
          "IncrementalCost: quadrant out of range");
  auto& order = current_.quadrants[static_cast<std::size_t>(quadrant)].order;
  require(left_finger >= 0 &&
              left_finger + 1 < static_cast<int>(order.size()),
          "IncrementalCost: finger out of range");

  const Quadrant& q = package_->quadrant(quadrant);
  const NetId a = order[static_cast<std::size_t>(left_finger)];
  const NetId b = order[static_cast<std::size_t>(left_finger + 1)];
  const int row_a = q.net_row(a);
  const int row_b = q.net_row(b);
  require(row_a != row_b, "IncrementalCost: same-row swap is illegal");
  std::swap(order[static_cast<std::size_t>(left_finger)],
            order[static_cast<std::size_t>(left_finger + 1)]);
  const int p = package_->ring_offset(quadrant) + left_finger;
  const auto left = static_cast<std::size_t>(p);

  // --- dispersion: exactly one supply pad moves by one slot -------------
  const int slot_a = supply_slot_[left];
  const int slot_b = supply_slot_[left + 1];
  if ((slot_a >= 0) != (slot_b >= 0)) {
    const auto slot = static_cast<std::size_t>(std::max(slot_a, slot_b));
    const int from = supply_pos_[slot];
    const int to = slot_a >= 0 ? p + 1 : p;
    const std::size_t count = supply_pos_.size();
    if (count > 1) {
      const int before = supply_pos_[(slot + count - 1) % count];
      const int after = supply_pos_[(slot + 1) % count];
      gap_sum_sq_ += gap_sq(before, to, alpha_) + gap_sq(to, after, alpha_) -
                     gap_sq(before, from, alpha_) -
                     gap_sq(from, after, alpha_);
    }
    supply_pos_[slot] = to;
    std::swap(supply_slot_[left], supply_slot_[left + 1]);
  }

  // --- Eq. (2): one signal net crosses a section boundary ---------------
  const bool ta = row_a == q.top_row();
  if (ta != (row_b == q.top_row())) {
    // Top-row nets keep their column order along the fingers (same-row
    // swaps never happen), so the column is the net's rank in its row.
    const int rank = q.net_col(ta ? a : b);
    const int first = section_start_[static_cast<std::size_t>(quadrant)];
    // ta: the signal net b moves from section rank+1 to rank;
    // tb: the signal net a moves from section rank to rank+1.
    shift_load(first + (ta ? rank : rank + 1), +1);
    shift_load(first + (ta ? rank + 1 : rank), -1);
  }

  // --- omega: rebuild the touched groups when the swap straddles one ----
  std::swap(tier_bit_[left], tier_bit_[left + 1]);
  const int g1 = p / tier_count_;
  const int g2 = (p + 1) / tier_count_;
  if (g1 != g2) {
    rebuild_group(g1);
    rebuild_group(g2);
  }
}

}  // namespace fp
