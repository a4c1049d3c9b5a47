// The whole-package model: a netlist plus four independently planned
// quadrants (Fig. 2), and the die-level facts the IR-drop model needs.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "package/geometry.h"
#include "package/quadrant.h"
#include "util/error.h"

namespace fp {

class Package {
 public:
  /// Quadrants are listed in pad-ring order around the die
  /// (conventionally bottom, right, top, left). Every net of `netlist`
  /// must appear in exactly one quadrant.
  Package(std::string name, Netlist netlist, PackageGeometry geometry,
          std::vector<Quadrant> quadrants);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Netlist& netlist() const { return netlist_; }
  [[nodiscard]] Netlist& netlist() { return netlist_; }
  [[nodiscard]] const PackageGeometry& geometry() const { return geometry_; }

  [[nodiscard]] int quadrant_count() const {
    return static_cast<int>(quadrants_.size());
  }
  [[nodiscard]] const Quadrant& quadrant(int index) const {
    require(index >= 0 && index < quadrant_count(),
            "Package: quadrant index out of range");
    return quadrants_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] const std::vector<Quadrant>& quadrants() const {
    return quadrants_;
  }

  /// Total finger/pad count over all quadrants (the paper's alpha).
  [[nodiscard]] int finger_count() const;

  /// Quadrant holding `net`'s bump, or -1.
  [[nodiscard]] int quadrant_of(NetId net) const;

  /// Offset of quadrant `index`'s first finger in the pad ring.
  [[nodiscard]] int ring_offset(int index) const;

  /// Die edge length (um) used by the on-die IR-drop model. Defaults to a
  /// value derived from the widest finger row plus a margin; override with
  /// set_die_edge_um for calibrated experiments.
  [[nodiscard]] double die_edge_um() const { return die_edge_um_; }
  void set_die_edge_um(double edge_um);

 private:
  std::string name_;
  Netlist netlist_;
  PackageGeometry geometry_;
  std::vector<Quadrant> quadrants_;
  std::vector<int> ring_offsets_;
  double die_edge_um_ = 0.0;
};

}  // namespace fp
