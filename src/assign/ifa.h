// Intuitive-Insertion-Based Finger/Pad Assignment (IFA, Fig. 9).
//
// Rows are processed from the highest horizontal line (nearest the die)
// outward. The top row's nets take the first finger slots in bump order.
// For every following row (m bumps, left to right):
//   * the first net is prepended to the current order;
//   * a middle net at bump column c is inserted immediately BEFORE the net
//     currently sitting on bump column c of the line above;
//   * the last net is appended.
//
// The paper's Fig.-9 pseudocode indexes the reference bump as "(x-1)th" but
// its fully worked example (Figs. 9-10, final order 10,1,11,2,3,6,4,5,9,
// 7,8,0) uses the SAME column on the line above; this implementation
// follows the worked example, which tests lock in. When the line above is
// shorter than column c (possible on steep triangles), the net is appended,
// preserving row order and therefore legality.
//
// The paper states O(n^2) in the quadrant net count; a linked list indexed
// by quadrant-local net makes each anchor lookup O(1), so this is O(n).
#pragma once

#include "assign/assigner.h"

namespace fp {

class IfaAssigner final : public Assigner {
 public:
  [[nodiscard]] std::string name() const override { return "IFA"; }

  [[nodiscard]] QuadrantAssignment assign(
      const Quadrant& quadrant) const override;

  using Assigner::assign;
};

}  // namespace fp
