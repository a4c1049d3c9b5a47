#include "package/assignment.h"

#include <algorithm>

#include "package/quadrant.h"

namespace fp {

int QuadrantAssignment::finger_of(NetId net) const {
  const auto it = std::find(order.begin(), order.end(), net);
  if (it == order.end()) return -1;
  return static_cast<int>(it - order.begin());
}

bool is_permutation_of(const QuadrantAssignment& assignment,
                       const Quadrant& quadrant) {
  if (assignment.size() != quadrant.net_count()) return false;
  std::vector<char> seen(static_cast<std::size_t>(quadrant.net_count()), 0);
  for (const NetId net : assignment.order) {
    const int local = quadrant.local_index(net);
    if (local < 0 || seen[static_cast<std::size_t>(local)]) return false;
    seen[static_cast<std::size_t>(local)] = 1;
  }
  return true;
}

int PackageAssignment::total_fingers() const {
  int total = 0;
  for (const auto& q : quadrants) total += q.size();
  return total;
}

std::vector<NetId> PackageAssignment::ring_order() const {
  std::vector<NetId> ring;
  ring.reserve(static_cast<std::size_t>(total_fingers()));
  for (const auto& q : quadrants) {
    ring.insert(ring.end(), q.order.begin(), q.order.end());
  }
  return ring;
}

}  // namespace fp
