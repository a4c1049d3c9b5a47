#include "route/router.h"

#include <algorithm>

#include "obs/trace.h"

namespace fp {
namespace {

double polyline_length(const std::vector<Point>& path) {
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    total += euclidean(path[i - 1], path[i]);
  }
  return total;
}

}  // namespace

QuadrantRoute MonotonicRouter::route(
    const Quadrant& quadrant, const QuadrantAssignment& assignment) const {
  return route(quadrant, assignment, QuadrantViaPlan::bottom_left(quadrant));
}

QuadrantRoute MonotonicRouter::route(const Quadrant& quadrant,
                                     const QuadrantAssignment& assignment,
                                     const QuadrantViaPlan& plan) const {
  const DensityMap density(quadrant, assignment, plan, strategy_);

  // Track assignment: per row, wires sharing a gap take evenly spread
  // positions in finger order, so the emitted layer-1 polylines never
  // cross and the Fig.-15 plots get their fan-out look. Gap g spans
  // [gap_lo[g], gap_hi[g]] (end gaps extend a pitch beyond the outer
  // slots). crossing_x[row * n + finger] is the wire's x when crossing
  // `row`; line_y[row] is the via-slot level of that line.
  const int rows = quadrant.row_count();
  const auto fingers = static_cast<std::size_t>(assignment.size());
  const double pitch = quadrant.geometry().bump_space_um;
  std::vector<int> row_of_finger(fingers);
  for (std::size_t a = 0; a < fingers; ++a) {
    row_of_finger[a] = quadrant.net_row(assignment.order[a]);
  }
  std::vector<double> crossing_x(static_cast<std::size_t>(rows) * fingers,
                                 0.0);
  std::vector<double> line_y(static_cast<std::size_t>(rows));
  std::vector<double> gap_lo;
  std::vector<double> gap_hi;
  std::vector<int> cursor;
  for (int r = 0; r < rows; ++r) {
    const int slots = quadrant.via_slots_in_row(r);
    const auto gaps = static_cast<std::size_t>(quadrant.gaps_in_row(r));
    gap_lo.resize(gaps);
    gap_hi.resize(gaps);
    for (int g = 0; g < static_cast<int>(gaps); ++g) {
      gap_lo[static_cast<std::size_t>(g)] =
          g == 0 ? quadrant.via_slot_position(r, 0).x - pitch
                 : quadrant.via_slot_position(r, g - 1).x;
      gap_hi[static_cast<std::size_t>(g)] =
          g >= slots ? quadrant.via_slot_position(r, slots - 1).x + pitch
                     : quadrant.via_slot_position(r, g).x;
    }
    line_y[static_cast<std::size_t>(r)] = quadrant.via_slot_position(r, 0).y;
    cursor.assign(gaps, 0);
    const std::vector<int>& counts = density.row_densities(r);
    double* const row_x = crossing_x.data() + static_cast<std::size_t>(r) *
                                                  fingers;
    for (std::size_t a = 0; a < fingers; ++a) {
      if (row_of_finger[a] >= r) continue;
      const int gap = density.crossing_gap(assignment.order[a], r);
      ensure(gap >= 0, "MonotonicRouter: missing crossing gap");
      const auto g = static_cast<std::size_t>(gap);
      const int index = cursor[g]++;
      row_x[a] = gap_lo[g] + (gap_hi[g] - gap_lo[g]) *
                                 (static_cast<double>(index) + 1.0) /
                                 (static_cast<double>(counts[g]) + 1.0);
    }
  }

  QuadrantRoute result;
  result.nets.reserve(fingers);

  for (std::size_t a = 0; a < fingers; ++a) {
    const NetId net = assignment.order[a];
    const int bump_row = row_of_finger[a];
    const int bump_col = quadrant.net_col(net);
    const Point finger = quadrant.finger_position(static_cast<int>(a));
    const Point via = quadrant.via_slot_position(
        bump_row, plan.rows[static_cast<std::size_t>(bump_row)]
                      .slot_of_bump[static_cast<std::size_t>(bump_col)]);
    const Point bump = quadrant.bump_position(bump_row, bump_col);

    RoutedNet routed;
    routed.net = net;
    routed.finger = static_cast<int>(a);
    routed.path.reserve(
        static_cast<std::size_t>(quadrant.top_row() - bump_row + 3));
    routed.path.push_back(finger);
    // Crossing points sit at the via-slot level of each line (half a pitch
    // below the bump centres) -- that is where the gaps are physically
    // delimited. Every such level is ordered by finger order (crossers by
    // track, terminators at their slots), so consecutive-level segments
    // can never cross and the terminating via is simply the last level.
    for (int r = quadrant.top_row(); r > bump_row; --r) {
      const auto row = static_cast<std::size_t>(r);
      routed.path.push_back(Point{crossing_x[row * fingers + a], line_y[row]});
    }
    routed.path.push_back(via);
    routed.path.push_back(bump);

    routed.flyline_length_um = euclidean(finger, via) + euclidean(via, bump);
    routed.routed_length_um = polyline_length(routed.path);

    result.total_flyline_um += routed.flyline_length_um;
    result.total_routed_um += routed.routed_length_um;
    result.nets.push_back(std::move(routed));
  }

  result.max_density = density.max_density();
  result.gap_densities.reserve(static_cast<std::size_t>(density.row_count()));
  for (int r = 0; r < density.row_count(); ++r) {
    result.gap_densities.push_back(density.row_densities(r));
  }
  return result;
}

PackageRoute MonotonicRouter::route(const Package& package,
                                    const PackageAssignment& assignment) const {
  return route(package, assignment, PackageViaPlan::bottom_left(package));
}

PackageRoute MonotonicRouter::route(const Package& package,
                                    const PackageAssignment& assignment,
                                    const PackageViaPlan& plan) const {
  const obs::ScopedSpan span("route.monotonic", "route");
  require(static_cast<int>(assignment.quadrants.size()) ==
              package.quadrant_count(),
          "MonotonicRouter: assignment/package quadrant count mismatch");
  require(plan.quadrants.size() == assignment.quadrants.size(),
          "MonotonicRouter: via plan/package quadrant count mismatch");
  PackageRoute result;
  result.quadrants.reserve(assignment.quadrants.size());
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    QuadrantRoute qr =
        route(package.quadrant(qi),
              assignment.quadrants[static_cast<std::size_t>(qi)],
              plan.quadrants[static_cast<std::size_t>(qi)]);
    result.max_density = std::max(result.max_density, qr.max_density);
    result.total_flyline_um += qr.total_flyline_um;
    result.total_routed_um += qr.total_routed_um;
    result.quadrants.push_back(std::move(qr));
  }
  return result;
}

int max_density(const Package& package, const PackageAssignment& assignment,
                CrossingStrategy strategy) {
  require(static_cast<int>(assignment.quadrants.size()) ==
              package.quadrant_count(),
          "max_density: assignment/package quadrant count mismatch");
  int best = 0;
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const DensityMap density(
        package.quadrant(qi),
        assignment.quadrants[static_cast<std::size_t>(qi)], strategy);
    best = std::max(best, density.max_density());
  }
  return best;
}

double total_flyline_um(const Package& package,
                        const PackageAssignment& assignment) {
  require(static_cast<int>(assignment.quadrants.size()) ==
              package.quadrant_count(),
          "total_flyline_um: assignment/package quadrant count mismatch");
  double total = 0.0;
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& quadrant = package.quadrant(qi);
    const QuadrantAssignment& qa =
        assignment.quadrants[static_cast<std::size_t>(qi)];
    for (int a = 0; a < qa.size(); ++a) {
      const NetId net = qa.order[static_cast<std::size_t>(a)];
      const int row = quadrant.net_row(net);
      const int col = quadrant.net_col(net);
      const Point via = quadrant.via_position(row, col);
      total += euclidean(quadrant.finger_position(a), via) +
               euclidean(via, quadrant.bump_position(row, col));
    }
  }
  return total;
}

}  // namespace fp
