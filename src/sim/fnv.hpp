// Byte-serial FNV-1a 64: the one definition behind every persisted hash of
// the simulator — log digests (sim::log_digest, BatchResult::log_hash),
// campaign fingerprints and aggregates, FaultRng instance keys and native
// image content hashes. Header-inline because the log digest alone is a
// large share of a short campaign scenario. Changing it changes pinned
// digests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tut::sim {

/// Incremental FNV-1a accumulator.
struct Fnv1a {
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  std::uint64_t h = kOffset;

  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kPrime;
  }
  /// A delimited string: the bytes plus a 0xff terminator, so "ab"+"c" and
  /// "a"+"bc" hash differently.
  void str(std::string_view s) noexcept {
    bytes(s.data(), s.size());
    h = (h ^ 0xffu) * kPrime;
  }
  /// A 64-bit integer as 8 little-endian bytes (host-independent).
  void u64(std::uint64_t v) noexcept {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  }
};

/// FNV-1a 64 of `text` (no delimiter).
inline std::uint64_t fnv1a(std::string_view text) noexcept {
  Fnv1a f;
  f.bytes(text.data(), text.size());
  return f.h;
}

}  // namespace tut::sim
