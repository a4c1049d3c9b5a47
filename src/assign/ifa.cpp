#include "assign/ifa.h"

namespace fp {

QuadrantAssignment IfaAssigner::assign(const Quadrant& quadrant) const {
  // A doubly linked list over quadrant-local net indices makes finding an
  // anchor and inserting before it O(1). Node n is the sentinel: next[n]
  // is the head of the order, prev[n] its tail.
  const auto n = static_cast<std::size_t>(quadrant.net_count());
  std::vector<std::size_t> next(n + 1, n);
  std::vector<std::size_t> prev(n + 1, n);
  const auto node_of = [&](NetId net) {
    return static_cast<std::size_t>(quadrant.local_index(net));
  };
  const auto insert_before = [&](std::size_t at, NetId net) {
    const std::size_t node = node_of(net);
    next[node] = at;
    prev[node] = prev[at];
    next[prev[at]] = node;
    prev[at] = node;
  };

  const int top = quadrant.top_row();
  for (const NetId net : quadrant.row_nets(top)) insert_before(n, net);

  for (int r = top - 1; r >= 0; --r) {
    const auto& nets = quadrant.row_nets(r);
    const auto& above = quadrant.row_nets(r + 1);
    for (std::size_t c = 0; c < nets.size(); ++c) {
      if (c == 0) {
        insert_before(next[n], nets[c]);
      } else if (c == nets.size() - 1 || c >= above.size()) {
        insert_before(n, nets[c]);
      } else {
        insert_before(node_of(above[c]), nets[c]);
      }
    }
  }

  const std::vector<NetId> nets = quadrant.all_nets();
  QuadrantAssignment result;
  result.order.reserve(n);
  for (std::size_t node = next[n]; node != n; node = next[node]) {
    result.order.push_back(nets[node]);
  }
  return result;
}

}  // namespace fp
