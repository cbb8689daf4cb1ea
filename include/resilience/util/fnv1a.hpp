#pragma once

// FNV-1a 64, the one hash under every content identity the project
// persists or compares across processes: grid signatures and chain keys
// (core/sweep), simulate signatures and per-cell seeds (service/sim_table),
// spill payload checksums (service/sweep_cache) and hash-ring shard seeds
// (net/hash_ring). The byte stream a caller feeds is therefore part of a
// format: integers go in as 8 bytes, least significant first; doubles by
// bit pattern; mix(std::string) prefixes the length, mix_bytes() does not.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace resilience::util {

class Fnv1a {
 public:
  /// The bytes as given, with no length prefix.
  void mix_bytes(std::string_view bytes) noexcept {
    for (const char byte : bytes) {
      hash_ ^= static_cast<unsigned char>(byte);
      hash_ *= 1099511628211ull;  // FNV prime
    }
  }
  void mix(std::uint64_t value) noexcept {
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ ^= (value >> shift) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void mix(double value) noexcept {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    mix(bits);
  }
  void mix(bool value) noexcept { mix(std::uint64_t{value ? 1u : 0u}); }
  /// Length-prefixed, so adjacent strings cannot run together.
  void mix(const std::string& value) noexcept {
    mix(std::uint64_t{value.size()});
    mix_bytes(value);
  }
  /// A literal would silently bind to mix(bool); tags use mix_bytes().
  void mix(const char*) = delete;

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV offset basis
};

/// FNV-1a 64 of a byte string (no length prefix).
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) noexcept {
  Fnv1a hasher;
  hasher.mix_bytes(bytes);
  return hasher.value();
}

}  // namespace resilience::util
