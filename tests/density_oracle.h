// Test-only oracle: the congestion map that fp::DensityMap computed before
// its one-pass row scan (src/route/density.cpp).
//
// Every row is rebuilt from scratch: the finger slots of the row's
// terminating nets are collected through a dense net -> finger lookup,
// each crossing net finds its window index t (terminators on fingers left
// of it) with a binary search over those slots, and every crossing
// updates the crosser's descent x, whichever strategy is in force. The
// arithmetic of both strategies is kept operation for operation, so the
// production map must reproduce every gap count and crossing gap
// exactly (tests/density_test.cpp). Legality and via-plan checks are the
// caller's: the oracle is only ever run on legal inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "package/assignment.h"
#include "package/quadrant.h"
#include "route/density.h"
#include "route/via_plan.h"

namespace fp::oracle {

/// x coordinate of a gap centre on `row` (gap g lies between via slots g-1
/// and g; end gaps extend half a pitch beyond the outer slots).
inline double gap_center_x(const Quadrant& q, int row, int gap) {
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

struct DensityOracle {
  std::vector<std::vector<int>> gap_counts;           // [row][gap]
  std::vector<std::vector<int>> crossing_gap_of_net;  // [row][net-min_id]
  NetId min_id = 0;

  [[nodiscard]] int crossing_gap(NetId net, int row) const {
    return crossing_gap_of_net[static_cast<std::size_t>(row)]
                              [static_cast<std::size_t>(net - min_id)];
  }
};

inline DensityOracle density_map(const Quadrant& quadrant,
                                 const QuadrantAssignment& assignment,
                                 const QuadrantViaPlan& plan,
                                 CrossingStrategy strategy) {
  DensityOracle out;
  const int rows = quadrant.row_count();
  out.gap_counts.resize(static_cast<std::size_t>(rows));
  out.crossing_gap_of_net.resize(static_cast<std::size_t>(rows));

  NetId min_id = assignment.order.front();
  NetId max_id = assignment.order.front();
  for (const NetId net : assignment.order) {
    min_id = std::min(min_id, net);
    max_id = std::max(max_id, net);
  }
  out.min_id = min_id;
  const std::size_t id_span = static_cast<std::size_t>(max_id - min_id + 1);
  std::vector<int> finger_of(id_span, -1);
  for (int a = 0; a < assignment.size(); ++a) {
    finger_of[static_cast<std::size_t>(
        assignment.order[static_cast<std::size_t>(a)] - min_id)] = a;
  }

  std::vector<double> prev_x(id_span, 0.0);
  for (int a = 0; a < assignment.size(); ++a) {
    prev_x[static_cast<std::size_t>(
        assignment.order[static_cast<std::size_t>(a)] - min_id)] =
        quadrant.finger_position(a).x;
  }

  for (int r = rows - 1; r >= 0; --r) {
    const int m = quadrant.bumps_in_row(r);
    const int gaps = quadrant.gaps_in_row(r);
    auto& counts = out.gap_counts[static_cast<std::size_t>(r)];
    counts.assign(static_cast<std::size_t>(gaps), 0);
    auto& cross = out.crossing_gap_of_net[static_cast<std::size_t>(r)];
    cross.assign(id_span, -1);

    std::vector<int> term_fingers;
    term_fingers.reserve(static_cast<std::size_t>(m));
    for (const NetId net : quadrant.row_nets(r)) {
      term_fingers.push_back(
          finger_of[static_cast<std::size_t>(net - min_id)]);
    }

    const auto& via_slots = plan.rows[static_cast<std::size_t>(r)].slot_of_bump;
    struct Crosser {
      NetId net;
      int t;
    };
    std::vector<Crosser> crossers;
    for (int a = 0; a < assignment.size(); ++a) {
      const NetId net = assignment.order[static_cast<std::size_t>(a)];
      if (quadrant.net_row(net) >= r) continue;
      const auto it =
          std::upper_bound(term_fingers.begin(), term_fingers.end(), a);
      crossers.push_back({net, static_cast<int>(it - term_fingers.begin())});
    }

    std::size_t i = 0;
    while (i < crossers.size()) {
      std::size_t j = i;
      while (j < crossers.size() && crossers[j].t == crossers[i].t) ++j;
      const int t = crossers[i].t;
      const int lo =
          t == 0 ? 0 : via_slots[static_cast<std::size_t>(t - 1)] + 1;
      const int hi =
          (t == m) ? m + 1 : via_slots[static_cast<std::size_t>(t)];
      const int window = hi - lo + 1;
      const auto k = static_cast<int>(j - i);
      int prev_gap = lo;
      for (int u = 0; u < k; ++u) {
        const NetId net = crossers[i + static_cast<std::size_t>(u)].net;
        int gap = lo;
        if (window > 1) {
          if (strategy == CrossingStrategy::Balanced) {
            gap = lo + (u * window) / k;
          } else {
            double best = std::numeric_limits<double>::max();
            const double from =
                prev_x[static_cast<std::size_t>(net - min_id)];
            for (int g = prev_gap; g <= hi; ++g) {
              const double d = std::abs(gap_center_x(quadrant, r, g) - from);
              if (d < best) {
                best = d;
                gap = g;
              }
            }
            prev_gap = gap;
          }
        }
        ++counts[static_cast<std::size_t>(gap)];
        cross[static_cast<std::size_t>(net - min_id)] = gap;
        prev_x[static_cast<std::size_t>(net - min_id)] =
            gap_center_x(quadrant, r, gap);
      }
      i = j;
    }
  }
  return out;
}

}  // namespace fp::oracle
