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

  // --- omega ---
  const int groups = (alpha_ + tier_count_ - 1) / tier_count_;
  group_union_.resize(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    group_union_[static_cast<std::size_t>(g)] = group_union(g, -1, 0);
    omega_ += zero_bits(group_union_[static_cast<std::size_t>(g)]);
  }
}

double IncrementalCost::dispersion() const {
  return dispersion_of(gap_sum_sq_);
}

int IncrementalCost::increased_density() const {
  return std::max(0, max_delta_);
}

double IncrementalCost::current() const {
  return cost_of(gap_sum_sq_, max_delta_, omega_);
}

double IncrementalCost::cost_after_swap(int quadrant, int left_finger) const {
  const SwapEffect e = effect_of(quadrant, left_finger);
  return cost_of(e.gap_sum_sq, e.max_delta, e.omega);
}

double IncrementalCost::dispersion_of(long long gap_sum_sq) const {
  if (supply_pos_.empty()) return 0.0;
  const double p = static_cast<double>(supply_pos_.size());
  const double total = static_cast<double>(alpha_);
  return static_cast<double>(gap_sum_sq) / (total * total / p);
}

double IncrementalCost::cost_of(long long gap_sum_sq, int max_delta,
                                int omega) const {
  return lambda_ * dispersion_of(gap_sum_sq) +
         rho_ * std::max(0, max_delta) + phi_ * omega;
}

std::uint32_t IncrementalCost::group_union(int group, int position,
                                           std::uint32_t bit) const {
  std::uint32_t value = 0;
  const int start = group * tier_count_;
  const int end = std::min(start + tier_count_, alpha_);
  for (int i = start; i < end; ++i) {
    value |= i == position ? bit : tier_bit_[static_cast<std::size_t>(i)];
  }
  return value;
}

int IncrementalCost::zero_bits(std::uint32_t group_union) const {
  return std::popcount(full_mask_ & ~group_union);
}

IncrementalCost::SwapEffect IncrementalCost::effect_of(
    int quadrant, int left_finger) const {
  require(quadrant >= 0 && quadrant < package_->quadrant_count(),
          "IncrementalCost: quadrant out of range");
  const auto& order =
      current_.quadrants[static_cast<std::size_t>(quadrant)].order;
  require(left_finger >= 0 &&
              left_finger + 1 < static_cast<int>(order.size()),
          "IncrementalCost: finger out of range");

  const Quadrant& q = package_->quadrant(quadrant);
  const NetId a = order[static_cast<std::size_t>(left_finger)];
  const NetId b = order[static_cast<std::size_t>(left_finger + 1)];
  const int row_a = q.net_row(a);
  const int row_b = q.net_row(b);
  require(row_a != row_b, "IncrementalCost: same-row swap is illegal");
  const int p = package_->ring_offset(quadrant) + left_finger;
  const auto left = static_cast<std::size_t>(p);
  SwapEffect e{.position = p,
               .gap_sum_sq = gap_sum_sq_,
               .max_delta = max_delta_,
               .omega = omega_};

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
      e.gap_sum_sq += gap_sq(before, to, alpha_) + gap_sq(to, after, alpha_) -
                      gap_sq(before, from, alpha_) -
                      gap_sq(from, after, alpha_);
    }
    e.supply_slot = static_cast<int>(slot);
    e.supply_to = to;
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
    e.section_up = first + (ta ? rank : rank + 1);
    e.section_down = first + (ta ? rank + 1 : rank);
    const int up = delta_[static_cast<std::size_t>(e.section_up)] + 1;
    const int down = delta_[static_cast<std::size_t>(e.section_down)];
    if (up > max_delta_) {
      e.max_delta = up;
    } else {
      // `up` was below the max; the max drops by one only when `down`
      // was the one section holding it.
      const int at_max =
          delta_count_[static_cast<std::size_t>(max_delta_ + delta_offset_)] -
          (down == max_delta_ ? 1 : 0) + (up == max_delta_ ? 1 : 0);
      if (at_max == 0) e.max_delta = max_delta_ - 1;
    }
  }

  // --- omega: rebuild the touched groups when the swap straddles one ----
  // (and moves a tier bit at all: equal bits leave every union as is).
  const int group = p / tier_count_;
  if ((p + 1) / tier_count_ != group &&
      tier_bit_[left] != tier_bit_[left + 1]) {
    e.straddles = true;
    e.union_left = group_union(group, p, tier_bit_[left + 1]);
    e.union_right = group_union(group + 1, p + 1, tier_bit_[left]);
    e.omega +=
        zero_bits(e.union_left) + zero_bits(e.union_right) -
        zero_bits(group_union_[static_cast<std::size_t>(group)]) -
        zero_bits(group_union_[static_cast<std::size_t>(group + 1)]);
  }
  return e;
}

void IncrementalCost::apply_swap(int quadrant, int left_finger) {
  const SwapEffect e = effect_of(quadrant, left_finger);
  auto& order = current_.quadrants[static_cast<std::size_t>(quadrant)].order;
  std::swap(order[static_cast<std::size_t>(left_finger)],
            order[static_cast<std::size_t>(left_finger + 1)]);
  const auto left = static_cast<std::size_t>(e.position);

  if (e.supply_slot >= 0) {
    supply_pos_[static_cast<std::size_t>(e.supply_slot)] = e.supply_to;
    std::swap(supply_slot_[left], supply_slot_[left + 1]);
  }
  gap_sum_sq_ = e.gap_sum_sq;

  if (e.section_up >= 0) {
    const auto move = [&](int section, int step) {
      int& delta = delta_[static_cast<std::size_t>(section)];
      --delta_count_[static_cast<std::size_t>(delta + delta_offset_)];
      delta += step;
      ++delta_count_[static_cast<std::size_t>(delta + delta_offset_)];
    };
    move(e.section_up, +1);
    move(e.section_down, -1);
  }
  max_delta_ = e.max_delta;

  std::swap(tier_bit_[left], tier_bit_[left + 1]);
  if (e.straddles) {
    const auto group = static_cast<std::size_t>(e.position / tier_count_);
    group_union_[group] = e.union_left;
    group_union_[group + 1] = e.union_right;
  }
  omega_ = e.omega;
}

}  // namespace fp
