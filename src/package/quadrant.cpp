#include "package/quadrant.h"

#include <algorithm>
#include <limits>

namespace fp {

Quadrant::Quadrant(std::string name, PackageGeometry geometry,
                   std::vector<std::vector<NetId>> rows)
    : name_(std::move(name)), geometry_(std::move(geometry)),
      rows_(std::move(rows)) {
  require(!rows_.empty(), "Quadrant: needs at least one bump row");
  NetId min_net = std::numeric_limits<NetId>::max();
  NetId max_net = std::numeric_limits<NetId>::min();
  for (const auto& row : rows_) {
    require(!row.empty(), "Quadrant: empty bump row");
    row_start_.push_back(net_count_);
    for (const NetId net : row) {
      require(net >= 0, "Quadrant: negative net id");
      min_net = std::min(min_net, net);
      max_net = std::max(max_net, net);
      ++net_count_;
    }
  }
  min_net_ = min_net;
  bump_of_net_.assign(static_cast<std::size_t>(max_net - min_net + 1),
                      IPoint{-1, -1});
  for (int r = 0; r < row_count(); ++r) {
    const auto& row = rows_[static_cast<std::size_t>(r)];
    for (int c = 0; c < static_cast<int>(row.size()); ++c) {
      const std::size_t slot =
          static_cast<std::size_t>(row[static_cast<std::size_t>(c)] - min_net_);
      require(bump_of_net_[slot] == IPoint{-1, -1},
              "Quadrant: net appears on more than one bump");
      bump_of_net_[slot] = IPoint{c, r};
    }
  }
}

int Quadrant::bumps_in_row(int row) const {
  require(row >= 0 && row < row_count(), "Quadrant: row out of range");
  return static_cast<int>(rows_[static_cast<std::size_t>(row)].size());
}

NetId Quadrant::bump_net(int row, int col) const {
  require(col >= 0 && col < bumps_in_row(row), "Quadrant: column out of range");
  return rows_[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)];
}

const std::vector<NetId>& Quadrant::row_nets(int row) const {
  require(row >= 0 && row < row_count(), "Quadrant: row out of range");
  return rows_[static_cast<std::size_t>(row)];
}

std::vector<NetId> Quadrant::all_nets() const {
  std::vector<NetId> out;
  out.reserve(static_cast<std::size_t>(net_count_));
  for (const auto& row : rows_) out.insert(out.end(), row.begin(), row.end());
  return out;
}

int Quadrant::local_index(NetId net) const {
  if (!contains(net)) return -1;
  const IPoint bump = bump_of_net_[static_cast<std::size_t>(net - min_net_)];
  return row_start_[static_cast<std::size_t>(bump.y)] + bump.x;
}

Point Quadrant::bump_position(int row, int col) const {
  require(col >= 0 && col < bumps_in_row(row), "Quadrant: column out of range");
  const double pitch = geometry_.bump_space_um;
  const int m = bumps_in_row(row);
  const double x0 = -0.5 * static_cast<double>(m - 1) * pitch;
  return {x0 + static_cast<double>(col) * pitch, row_line_y(row)};
}

Point Quadrant::via_slot_position(int row, int slot) const {
  require(slot >= 0 && slot < via_slots_in_row(row),
          "Quadrant: via slot out of range");
  const double pitch = geometry_.bump_space_um;
  const int m = bumps_in_row(row);
  const double x0 = -0.5 * static_cast<double>(m - 1) * pitch;
  // Slot j is the bottom-left corner of bump j (slot m = right corner of the
  // last bump); "bottom" places it half a pitch below the row line.
  return {x0 + (static_cast<double>(slot) - 0.5) * pitch,
          row_line_y(row) - 0.5 * pitch};
}

Point Quadrant::finger_position(int index) const {
  require(index >= 0 && index < finger_count(),
          "Quadrant: finger index out of range");
  const double pitch = geometry_.finger_pitch_um();
  const double x0 = -0.5 * static_cast<double>(finger_count() - 1) * pitch;
  return {x0 + static_cast<double>(index) * pitch, finger_line_y()};
}

double Quadrant::finger_line_y() const {
  return (static_cast<double>(row_count()) + 1.0) * geometry_.bump_space_um;
}

double Quadrant::row_line_y(int row) const {
  require(row >= 0 && row < row_count(), "Quadrant: row out of range");
  return (static_cast<double>(row) + 1.0) * geometry_.bump_space_um;
}

}  // namespace fp
