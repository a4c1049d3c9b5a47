// The Eq.-(3) swap path runs once per SA proposal and once per serve
// swap, so IncrementalCost::cost_after_swap (the peek that scores a
// proposal) and apply_swap (the commit) must not allocate. This
// binary replaces the global operator new with a counting one (its own
// executable, so no other test runs under the replacement).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "assign/dfa.h"
#include "exchange/incremental_cost.h"
#include "package/circuit_generator.h"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace fp {
namespace {

TEST(IncrementalCost, SwapPathAllocatesNothing) {
  for (const int tiers : {1, 2, 3}) {
    CircuitSpec spec = CircuitGenerator::table1(4);
    spec.tier_count = tiers;
    const Package package = CircuitGenerator::generate(spec);
    IncrementalCost cost(package, DfaAssigner().assign(package), 20.0, 2.0,
                         1.0);
    long swaps = 0;
    double sum = 0.0;
    const long before = g_allocations.load();
    for (int round = 0; round < 20; ++round) {
      for (int qi = 0; qi < package.quadrant_count(); ++qi) {
        const Quadrant& q = package.quadrant(qi);
        const auto& order =
            cost.assignment().quadrants[static_cast<std::size_t>(qi)].order;
        for (std::size_t left = 0; left + 1 < order.size(); ++left) {
          if (q.net_row(order[left]) == q.net_row(order[left + 1])) continue;
          sum += cost.cost_after_swap(qi, static_cast<int>(left));
          cost.apply_swap(qi, static_cast<int>(left));
          sum += cost.current();
          ++swaps;
          if (left % 3 == 0) {  // undo: the same swap again
            sum += cost.cost_after_swap(qi, static_cast<int>(left));
            cost.apply_swap(qi, static_cast<int>(left));
            sum += cost.current();
          }
        }
      }
    }
    EXPECT_EQ(g_allocations.load() - before, 0) << "tiers " << tiers;
    EXPECT_GT(swaps, 1000);
    EXPECT_GT(sum, 0.0);
  }
}

}  // namespace
}  // namespace fp
