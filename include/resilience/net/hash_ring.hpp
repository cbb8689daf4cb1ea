#pragma once

// Consistent-hash ring over shard ids: each live shard contributes a
// fixed set of deterministic vnode positions (splitmix64 over the shard
// id and the vnode index), and a key is owned by the first vnode at or
// after its hashed position (wrapping). Two properties the fleet's
// failover correctness rests on, both pinned by test_router:
//
//   * stability — removing a shard moves ONLY the keys that shard owned
//     (they fall through to the next vnode); every other key keeps its
//     owner, so a failover never reshuffles healthy shards' work;
//   * rejoin — positions depend only on (shard id, vnode index), so
//     re-adding a shard restores exactly the assignment that held before
//     it was removed.
//
// Not thread-safe by itself; the ShardFleet serializes access.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace resilience::net {

class HashRing {
 public:
  /// Positions per shard (more = smoother key spread and smoother
  /// failover redistribution; cost is O(kVnodes) per add).
  static constexpr std::size_t kVnodes = 64;

  /// Adds a shard's vnodes (idempotent: re-adding a present shard is a
  /// no-op).
  void add(const std::string& shard_id);
  /// Removes a shard's vnodes (idempotent).
  void remove(const std::string& shard_id);
  [[nodiscard]] bool contains(const std::string& shard_id) const;

  /// Live shards, sorted by id (deterministic iteration for stats).
  [[nodiscard]] std::vector<std::string> shards() const;
  [[nodiscard]] std::size_t size() const noexcept { return shard_count_; }
  [[nodiscard]] bool empty() const noexcept { return shard_count_ == 0; }

  /// Owner of `key` (a 64-bit chain/grid hash); nullopt on an empty
  /// ring. Deterministic: same ring membership + same key = same owner.
  [[nodiscard]] std::optional<std::string> owner(std::uint64_t key) const;

 private:
  struct Point {
    std::uint64_t position;
    std::string shard;
  };
  std::vector<Point> points_;  ///< sorted by (position, shard)
  std::size_t shard_count_ = 0;
};

}  // namespace resilience::net
