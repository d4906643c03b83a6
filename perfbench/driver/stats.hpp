// Small deterministic building blocks of the benchmark: the seeded random
// source, the open-loop arrival schedule, the percentile rule and the output
// hash. Header-only so the self-test links them without the workloads.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64: the seeded source for every generated input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  long range(long lo, long hi) {
    return lo + static_cast<long>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// A value derived from (seed, a, b) without shared state.
inline std::uint64_t mix(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b = 0) {
  Rng r(seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xc2b2ae3d27d4eb4full));
  r.next();
  return r.next();
}

/// Open-loop Poisson arrivals: due times in ns from the start of the window,
/// every one below `window_ns`. Same seed, same schedule.
inline std::vector<std::int64_t> arrival_schedule(std::uint64_t seed,
                                                  double rate_per_s,
                                                  std::int64_t window_ns) {
  Rng rng(seed);
  std::vector<std::int64_t> due;
  due.reserve(static_cast<std::size_t>(rate_per_s * window_ns / 1e9 * 1.1) + 16);
  double t = 0;
  for (;;) {
    // 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.uniform()) / rate_per_s * 1e9;
    if (t >= static_cast<double>(window_ns)) break;
    due.push_back(static_cast<std::int64_t>(t));
  }
  return due;
}

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least p percent of all samples at or below it. 0 for no samples.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

/// Samples beyond the p-th percentile under the nearest-rank rule.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return n - std::min(n, static_cast<std::size_t>(rank));
}

inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 50);
}

/// 64-bit hash of output text, eight bytes per step (FNV-1a constants).
/// Used for the benchmark's own output checks, not by the program.
inline std::uint64_t hash_text(std::string_view s,
                               std::uint64_t h = 0xcbf29ce484222325ull) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = (h ^ w) * kPrime;
    h ^= h >> 29;
  }
  for (; i < s.size(); ++i) h = (h ^ static_cast<unsigned char>(s[i])) * kPrime;
  return (h ^ s.size()) * kPrime;
}

}  // namespace perfbench
