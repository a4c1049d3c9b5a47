#include "assign/dfa.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace fp {

DfaAssigner::DfaAssigner(int cut_line_n) : cut_line_n_(cut_line_n) {
  require(cut_line_n >= 1, "DFA: cut-line n must be >= 1 (Fig. 11)");
}

QuadrantAssignment DfaAssigner::assign(const Quadrant& quadrant) const {
  const int alpha = quadrant.finger_count();
  QuadrantAssignment result;
  result.order.assign(static_cast<std::size_t>(alpha), kInvalidNet);

  // Free finger slots: a bitmap of 64-slot words under a Fenwick tree of
  // the words' free counts (node i covers words (i - lowbit(i), i]).
  const int words = (alpha + 63) / 64;
  std::vector<std::uint64_t> free_bits(static_cast<std::size_t>(words), ~0ULL);
  if (alpha % 64 != 0) free_bits.back() = (1ULL << (alpha % 64)) - 1;
  std::vector<int> free_in(static_cast<std::size_t>(words) + 1);
  for (int i = 1; i <= words; ++i) {
    free_in[static_cast<std::size_t>(i)] =
        std::min(64 * i, alpha) - 64 * (i - (i & -i));
  }
  const int top_step =
      static_cast<int>(std::bit_floor(static_cast<unsigned>(words)));
  int remaining = quadrant.net_count();
  const int used_vias = quadrant.bumps_in_row(quadrant.top_row());

  for (int r = quadrant.top_row(); r >= 0; --r) {
    const int m = quadrant.bumps_in_row(r);
    const int total_vias = quadrant.via_slots_in_row(r);
    const double di =
        static_cast<double>(remaining - used_vias) /
        static_cast<double>(total_vias + cut_line_n_);

    for (int x = 1; x <= m; ++x) {
      // Empty number EN = floor(x * DI); target the (EN+1)-th free slot.
      int k = static_cast<int>(
                  std::floor(static_cast<double>(x) * std::max(di, 0.0))) +
              1;
      const int free = alpha - (quadrant.net_count() - remaining);
      const int same_row_after = m - x;
      k = std::clamp(k, 1, free - same_row_after);
      ensure(k >= 1, "DFA: ran out of free finger slots");

      // Select the k-th free slot from the left: lift through the tree to
      // its word, then drop the word's k-1 lowest free bits.
      int word = 0;  // words [0, word) hold fewer than k free slots
      for (int step = top_step; step > 0; step >>= 1) {
        const int up = word + step;
        if (up <= words && free_in[static_cast<std::size_t>(up)] < k) {
          word = up;
          k -= free_in[static_cast<std::size_t>(up)];
        }
      }
      ensure(word < words, "DFA: free slot select failed");
      std::uint64_t bits = free_bits[static_cast<std::size_t>(word)];
      for (; k > 1; --k) bits &= bits - 1;
      free_bits[static_cast<std::size_t>(word)] ^= bits & -bits;
      for (int i = word + 1; i <= words; i += i & -i) {
        --free_in[static_cast<std::size_t>(i)];
      }
      const int slot = 64 * word + std::countr_zero(bits);
      result.order[static_cast<std::size_t>(slot)] =
          quadrant.bump_net(r, x - 1);
      --remaining;
    }
  }
  ensure(remaining == 0, "DFA: not all nets were assigned");
  return result;
}

}  // namespace fp
