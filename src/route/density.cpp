#include "route/density.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "route/legality.h"

namespace fp {
namespace {

/// x coordinate of a gap centre on `row` (gap g lies between via slots g-1
/// and g; end gaps extend half a pitch beyond the outer slots).
double gap_center_x(const Quadrant& q, int row, int gap) {
  const int slots = q.via_slots_in_row(row);
  if (gap == 0) {
    return q.via_slot_position(row, 0).x - 0.5 * q.geometry().bump_space_um;
  }
  if (gap == slots) {
    return q.via_slot_position(row, slots - 1).x +
           0.5 * q.geometry().bump_space_um;
  }
  return 0.5 * (q.via_slot_position(row, gap - 1).x +
                q.via_slot_position(row, gap).x);
}

}  // namespace

DensityMap::DensityMap(const Quadrant& quadrant,
                       const QuadrantAssignment& assignment,
                       CrossingStrategy strategy)
    : DensityMap(quadrant, assignment, QuadrantViaPlan::bottom_left(quadrant),
                 strategy) {}

DensityMap::DensityMap(const Quadrant& quadrant,
                       const QuadrantAssignment& assignment,
                       const QuadrantViaPlan& plan, CrossingStrategy strategy)
    : quadrant_(&quadrant) {
  if (const auto violation = find_violation(quadrant, assignment)) {
    throw InvalidArgument("DensityMap: " + violation->to_string());
  }
  if (const auto problem = validate_via_plan(quadrant, plan)) {
    throw InvalidArgument("DensityMap: " + *problem);
  }

  const int rows = quadrant.row_count();
  const auto fingers = static_cast<std::size_t>(assignment.size());
  gap_counts_.resize(static_cast<std::size_t>(rows));

  // Crossing gaps are stored densely over the quadrant's net id range.
  NetId min_id = assignment.order.front();
  NetId max_id = assignment.order.front();
  for (const NetId net : assignment.order) {
    min_id = std::min(min_id, net);
    max_id = std::max(max_id, net);
  }
  min_id_ = min_id;
  id_span_ = static_cast<std::size_t>(max_id - min_id + 1);
  crossing_gap_of_net_.assign(static_cast<std::size_t>(rows) * id_span_, -1);

  // Bump row of the net on each finger, looked up once for every row.
  std::vector<int> row_of_finger(fingers);
  for (std::size_t a = 0; a < fingers; ++a) {
    row_of_finger[a] = quadrant.net_row(assignment.order[a]);
  }

  // Nearest only: each finger's crossing x on the line above the one being
  // processed (initially the finger itself; nets descend from the
  // fingers), and the gap centres of the current row.
  const bool nearest = strategy == CrossingStrategy::Nearest;
  std::vector<double> prev_x;
  std::vector<double> center;
  if (nearest) {
    prev_x.resize(fingers);
    for (std::size_t a = 0; a < fingers; ++a) {
      prev_x[a] = quadrant.finger_position(static_cast<int>(a)).x;
    }
  }

  // Fingers of the crossing nets that share the current window.
  std::vector<int> window_fingers;
  window_fingers.reserve(fingers);

  for (int r = rows - 1; r >= 0; --r) {
    const int m = quadrant.bumps_in_row(r);
    const int gaps = quadrant.gaps_in_row(r);  // m + 2
    auto& counts = gap_counts_[static_cast<std::size_t>(r)];
    counts.assign(static_cast<std::size_t>(gaps), 0);
    int* const cross =
        crossing_gap_of_net_.data() + static_cast<std::size_t>(r) * id_span_;
    const auto& via_slots = plan.rows[static_cast<std::size_t>(r)].slot_of_bump;
    if (nearest) {
      center.resize(static_cast<std::size_t>(gaps));
      for (int g = 0; g < gaps; ++g) {
        center[static_cast<std::size_t>(g)] = gap_center_x(quadrant, r, g);
      }
    }

    // Spreads the crossers of window t (those with t terminators on
    // fingers to their left) over the gaps between the via slot of
    // terminator t-1 and that of terminator t. Under the default
    // bottom-left plan that is a single gap everywhere except right of
    // the last terminator; shifted via plans open wider windows elsewhere.
    const auto place_window = [&](int t) {
      const auto k = static_cast<int>(window_fingers.size());
      if (k == 0) return;
      const int lo =
          t == 0 ? 0 : via_slots[static_cast<std::size_t>(t - 1)] + 1;
      const int hi =
          (t == m) ? m + 1 : via_slots[static_cast<std::size_t>(t)];
      const int window = hi - lo + 1;
      int prev_gap = lo;
      for (int u = 0; u < k; ++u) {
        const auto a = static_cast<std::size_t>(
            window_fingers[static_cast<std::size_t>(u)]);
        int gap = lo;
        if (window > 1) {
          if (!nearest) {
            gap = lo + (u * window) / k;
          } else {  // Nearest: pick the window gap closest to the descent x,
                    // never stepping left of an earlier same-window net.
            double best = std::numeric_limits<double>::max();
            for (int g = prev_gap; g <= hi; ++g) {
              const double d =
                  std::abs(center[static_cast<std::size_t>(g)] - prev_x[a]);
              if (d < best) {
                best = d;
                gap = g;
              }
            }
            prev_gap = gap;
          }
        }
        ++counts[static_cast<std::size_t>(gap)];
        cross[static_cast<std::size_t>(assignment.order[a] - min_id)] = gap;
        if (nearest) prev_x[a] = center[static_cast<std::size_t>(gap)];
      }
      window_fingers.clear();
    };

    // One scan in finger order: a cursor t counts the row's terminating
    // nets passed so far (legality puts them in bump order), so every
    // crosser's window is known without a search.
    int t = 0;
    for (std::size_t a = 0; a < fingers; ++a) {
      const int row = row_of_finger[a];
      if (row == r) {
        place_window(t);
        ++t;
      } else if (row < r) {
        window_fingers.push_back(static_cast<int>(a));
      }
    }
    place_window(t);
  }
}

int DensityMap::gap_density(int row, int gap) const {
  require(row >= 0 && row < row_count(), "DensityMap: row out of range");
  const auto& counts = gap_counts_[static_cast<std::size_t>(row)];
  require(gap >= 0 && static_cast<std::size_t>(gap) < counts.size(),
          "DensityMap: gap out of range");
  return counts[static_cast<std::size_t>(gap)];
}

const std::vector<int>& DensityMap::row_densities(int row) const {
  require(row >= 0 && row < row_count(), "DensityMap: row out of range");
  return gap_counts_[static_cast<std::size_t>(row)];
}

int DensityMap::row_max(int row) const {
  const auto& counts = row_densities(row);
  return *std::max_element(counts.begin(), counts.end());
}

int DensityMap::max_density() const {
  int best = 0;
  for (int r = 0; r < row_count(); ++r) best = std::max(best, row_max(r));
  return best;
}

long long DensityMap::total_crossings() const {
  long long total = 0;
  for (const auto& counts : gap_counts_) {
    total += std::accumulate(counts.begin(), counts.end(), 0LL);
  }
  return total;
}

int DensityMap::crossing_gap(NetId net, int row) const {
  require(row >= 0 && row < row_count(), "DensityMap: row out of range");
  const std::size_t slot = static_cast<std::size_t>(net - min_id_);
  require(net >= min_id_ && slot < id_span_,
          "DensityMap: net outside quadrant");
  return crossing_gap_of_net_[static_cast<std::size_t>(row) * id_span_ +
                              slot];
}

}  // namespace fp
