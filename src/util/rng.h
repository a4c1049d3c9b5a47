// Deterministic, seedable random number generation.
//
// All stochastic parts of fpkit (random baseline assignment, synthetic
// circuit generation, simulated annealing) draw from fp::Rng so that every
// experiment is reproducible from a single 64-bit seed. The generator is
// xoshiro256** seeded through splitmix64, which has good statistical
// properties and is much faster than std::mt19937_64.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/error.h"

namespace fp {

/// xoshiro256** pseudo-random generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state by running splitmix64 on `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 random bits.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <algorithm>/<random>).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return next(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    require(lo <= hi, "Rng::uniform_int: empty range");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) {  // full 64-bit range
      return static_cast<std::int64_t>(next());
    }
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Uniform size_t index in [0, n). Requires n > 0. Draws the same
  /// stream as uniform_int(0, n - 1); see IndexDraw for a fixed n.
  std::size_t index(std::size_t n) {
    require(n > 0, "Rng::index: n must be positive");
    return static_cast<std::size_t>(below(n));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 top bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    require(lo <= hi, "Rng::uniform: empty range");
    return lo + (hi - lo) * uniform();
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Standard normal via Box-Muller.
  double normal();

  /// Fisher-Yates shuffle of `items` in place.
  template <typename T>
  void shuffle(std::span<T> items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      std::swap(items[i], items[index(i + 1)]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  /// Derives an independent child generator (for per-quadrant streams).
  Rng split();

 private:
  /// Unbiased integer in [0, span) by rejection sampling; span > 0.
  std::uint64_t below(std::uint64_t span) {
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t v = next();
    while (v >= limit) v = next();
    return v % span;
  }

  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Rng::index(n) for an n fixed up front, draw for draw the same stream
/// and values. The rejection limit and floor((2^64 - 1) / n) are computed
/// once, so a draw costs one multiply instead of two 64-bit divisions:
/// q = floor(v * m / 2^64) is floor(v / n) or one less, so v - q * n is
/// the remainder or the remainder plus n, and one compare fixes it.
class IndexDraw {
 public:
  explicit IndexDraw(std::size_t n)
      : n_(n), limit_(n > 0 ? Rng::max() - Rng::max() % n : 0),
        reciprocal_(n > 0 ? Rng::max() / n : 0) {
    require(n > 0, "IndexDraw: n must be positive");
  }

  std::size_t operator()(Rng& rng) const {
    std::uint64_t v = rng.next();
    while (v >= limit_) v = rng.next();
    __extension__ using Wide = unsigned __int128;
    const auto q = static_cast<std::uint64_t>(
        (static_cast<Wide>(v) * reciprocal_) >> 64);
    const std::uint64_t r = v - q * n_;
    return static_cast<std::size_t>(r >= n_ ? r - n_ : r);
  }

 private:
  std::uint64_t n_;
  std::uint64_t limit_;
  std::uint64_t reciprocal_;
};

}  // namespace fp
