#include "route/via_plan.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"
#include "route/legality.h"

namespace fp {

QuadrantViaPlan QuadrantViaPlan::bottom_left(const Quadrant& quadrant) {
  QuadrantViaPlan plan;
  plan.rows.reserve(static_cast<std::size_t>(quadrant.row_count()));
  for (int r = 0; r < quadrant.row_count(); ++r) {
    plan.rows.push_back(suffix_shift(quadrant.bumps_in_row(r),
                                     quadrant.bumps_in_row(r)));
  }
  return plan;
}

RowViaPlan QuadrantViaPlan::suffix_shift(int bumps, int pivot) {
  require(bumps >= 1, "suffix_shift: need at least one bump");
  require(pivot >= 0 && pivot <= bumps, "suffix_shift: pivot out of range");
  RowViaPlan row;
  row.slot_of_bump.resize(static_cast<std::size_t>(bumps));
  for (int c = 0; c < bumps; ++c) {
    row.slot_of_bump[static_cast<std::size_t>(c)] = c < pivot ? c : c + 1;
  }
  return row;
}

std::optional<std::string> validate_via_plan(const Quadrant& quadrant,
                                             const QuadrantViaPlan& plan) {
  if (static_cast<int>(plan.rows.size()) != quadrant.row_count()) {
    return "via plan row count differs from quadrant";
  }
  for (int r = 0; r < quadrant.row_count(); ++r) {
    const auto& slots = plan.rows[static_cast<std::size_t>(r)].slot_of_bump;
    const int m = quadrant.bumps_in_row(r);
    if (static_cast<int>(slots.size()) != m) {
      return "via plan of row " + std::to_string(r) +
             " has wrong bump count";
    }
    for (int c = 0; c < m; ++c) {
      const int slot = slots[static_cast<std::size_t>(c)];
      if (slot != c && slot != c + 1) {
        return "via of bump " + std::to_string(c) + " on row " +
               std::to_string(r) + " is not one of its corners";
      }
      if (c > 0 && slot <= slots[static_cast<std::size_t>(c - 1)]) {
        return "via slots on row " + std::to_string(r) +
               " are not strictly increasing at bump " + std::to_string(c);
      }
    }
  }
  return std::nullopt;
}

QuadrantViaPlan ViaPlanner::plan(const Quadrant& quadrant,
                                 const QuadrantAssignment& assignment) const {
  if (const auto violation = find_violation(quadrant, assignment)) {
    throw InvalidArgument("ViaPlanner: " + violation->to_string());
  }

  // Finger slot of each net, by quadrant-local index.
  std::vector<int> finger_of(static_cast<std::size_t>(assignment.size()));
  for (int a = 0; a < assignment.size(); ++a) {
    finger_of[static_cast<std::size_t>(quadrant.local_index(
        assignment.order[static_cast<std::size_t>(a)]))] = a;
  }

  QuadrantViaPlan best_plan;
  best_plan.rows.resize(static_cast<std::size_t>(quadrant.row_count()));

  for (int r = 0; r < quadrant.row_count(); ++r) {
    const int m = quadrant.bumps_in_row(r);

    // Terminator finger slots, ascending (legality), and the crossing
    // population per window index t (count of crossers with exactly t
    // terminators on fingers to their left). Both are plan-independent.
    std::vector<int> term_fingers;
    term_fingers.reserve(static_cast<std::size_t>(m));
    for (const NetId net : quadrant.row_nets(r)) {
      term_fingers.push_back(
          finger_of[static_cast<std::size_t>(quadrant.local_index(net))]);
    }
    std::vector<int> window_load(static_cast<std::size_t>(m) + 1, 0);
    for (int a = 0; a < assignment.size(); ++a) {
      const NetId net = assignment.order[static_cast<std::size_t>(a)];
      if (quadrant.net_row(net) >= r) continue;
      const auto it =
          std::upper_bound(term_fingers.begin(), term_fingers.end(), a);
      ++window_load[static_cast<std::size_t>(it - term_fingers.begin())];
    }

    // Exhaustive suffix-shift search; prefer the largest pivot (least
    // shifting, vias stay at their bumps' left corners) on ties.
    int best_pivot = m;
    int best_max = std::numeric_limits<int>::max();
    for (int pivot = m; pivot >= 0; --pivot) {
      const RowViaPlan candidate = QuadrantViaPlan::suffix_shift(m, pivot);
      int worst = 0;
      for (int t = 0; t <= m; ++t) {
        const int load = window_load[static_cast<std::size_t>(t)];
        if (load == 0) continue;
        const int lo =
            t == 0 ? 0
                   : candidate.slot_of_bump[static_cast<std::size_t>(t - 1)] +
                         1;
        const int hi =
            t == m ? m + 1
                   : candidate.slot_of_bump[static_cast<std::size_t>(t)];
        const int width = hi - lo + 1;
        worst = std::max(worst, (load + width - 1) / width);
      }
      if (worst < best_max) {
        best_max = worst;
        best_pivot = pivot;
      }
    }
    best_plan.rows[static_cast<std::size_t>(r)] =
        QuadrantViaPlan::suffix_shift(m, best_pivot);
  }
  return best_plan;
}

PackageViaPlan PackageViaPlan::bottom_left(const Package& package) {
  PackageViaPlan plan;
  plan.quadrants.reserve(static_cast<std::size_t>(package.quadrant_count()));
  for (const Quadrant& quadrant : package.quadrants()) {
    plan.quadrants.push_back(QuadrantViaPlan::bottom_left(quadrant));
  }
  return plan;
}

PackageViaPlan plan_vias(const Package& package,
                         const PackageAssignment& assignment) {
  const obs::ScopedSpan span("route.via_plan", "route");
  require(static_cast<int>(assignment.quadrants.size()) ==
              package.quadrant_count(),
          "plan_vias: assignment/package quadrant count mismatch");
  const ViaPlanner planner;
  PackageViaPlan plan;
  plan.quadrants.reserve(static_cast<std::size_t>(package.quadrant_count()));
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    plan.quadrants.push_back(
        planner.plan(package.quadrant(qi),
                     assignment.quadrants[static_cast<std::size_t>(qi)]));
  }
  return plan;
}

}  // namespace fp
