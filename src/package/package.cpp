#include "package/package.h"

#include <algorithm>

namespace fp {

Package::Package(std::string name, Netlist netlist, PackageGeometry geometry,
                 std::vector<Quadrant> quadrants)
    : name_(std::move(name)), netlist_(std::move(netlist)),
      geometry_(std::move(geometry)), quadrants_(std::move(quadrants)) {
  require(!quadrants_.empty(), "Package: needs at least one quadrant");

  // Each net must live in exactly one quadrant and cover the netlist.
  std::vector<int> appearances(netlist_.size(), 0);
  int total = 0;
  for (const Quadrant& q : quadrants_) {
    for (const NetId net : q.all_nets()) {
      require(net >= 0 && static_cast<std::size_t>(net) < netlist_.size(),
              "Package: quadrant references net outside the netlist");
      ++appearances[static_cast<std::size_t>(net)];
      ++total;
    }
  }
  require(static_cast<std::size_t>(total) == netlist_.size(),
          "Package: bump count differs from netlist size");
  require(std::all_of(appearances.begin(), appearances.end(),
                      [](int c) { return c == 1; }),
          "Package: every net must appear in exactly one quadrant");

  ring_offsets_.reserve(quadrants_.size());
  int offset = 0;
  double widest = 0.0;
  for (const Quadrant& q : quadrants_) {
    ring_offsets_.push_back(offset);
    offset += q.finger_count();
    widest = std::max(
        widest, static_cast<double>(q.finger_count()) *
                    q.geometry().finger_pitch_um());
  }
  die_edge_um_ = widest * 1.1 + 2.0 * geometry_.bump_space_um;
}

int Package::finger_count() const {
  int total = 0;
  for (const Quadrant& q : quadrants_) total += q.finger_count();
  return total;
}

int Package::quadrant_of(NetId net) const {
  for (int i = 0; i < quadrant_count(); ++i) {
    if (quadrants_[static_cast<std::size_t>(i)].contains(net)) return i;
  }
  return -1;
}

int Package::ring_offset(int index) const {
  require(index >= 0 && index < quadrant_count(),
          "Package: quadrant index out of range");
  return ring_offsets_[static_cast<std::size_t>(index)];
}

void Package::set_die_edge_um(double edge_um) {
  require(edge_um > 0.0, "Package: die edge must be positive");
  die_edge_um_ = edge_um;
}

}  // namespace fp
