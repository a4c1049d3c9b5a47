#include "route/legality.h"

#include <vector>

namespace fp {

std::string LegalityViolation::to_string() const {
  return "monotonic violation on row " + std::to_string(row) + ": net " +
         std::to_string(left_net) + " (bump col " + std::to_string(col - 1) +
         ") must sit on a finger left of net " + std::to_string(right_net) +
         " (bump col " + std::to_string(col) + ")";
}

std::optional<LegalityViolation> find_violation(
    const Quadrant& quadrant, const QuadrantAssignment& assignment) {
  require(is_permutation_of(assignment, quadrant),
          "find_violation: assignment is not a permutation of the quadrant");

  // Finger slot of each net, by quadrant-local index.
  std::vector<int> slot_of(static_cast<std::size_t>(assignment.size()));
  for (int a = 0; a < assignment.size(); ++a) {
    slot_of[static_cast<std::size_t>(quadrant.local_index(
        assignment.order[static_cast<std::size_t>(a)]))] = a;
  }

  for (int r = 0; r < quadrant.row_count(); ++r) {
    const auto& row = quadrant.row_nets(r);
    for (std::size_t c = 1; c < row.size(); ++c) {
      const int left = slot_of[static_cast<std::size_t>(
          quadrant.local_index(row[c - 1]))];
      const int right =
          slot_of[static_cast<std::size_t>(quadrant.local_index(row[c]))];
      if (left >= right) {
        return LegalityViolation{r, static_cast<int>(c), row[c - 1], row[c]};
      }
    }
  }
  return std::nullopt;
}

bool is_monotone_legal(const Quadrant& quadrant,
                       const QuadrantAssignment& assignment) {
  return !find_violation(quadrant, assignment).has_value();
}

}  // namespace fp
