#include "resilience/net/hash_ring.hpp"

#include <algorithm>

#include "resilience/util/fnv1a.hpp"

namespace resilience::net {

namespace {

/// splitmix64 finalizer: the bit mixer under every ring position and
/// key placement (same construction as net::FaultSchedule's streams).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a 64 over the shard id, then mixed: string identity -> stream
/// seed.
std::uint64_t shard_seed(const std::string& shard_id) {
  return mix64(util::fnv1a(shard_id));
}

}  // namespace

void HashRing::add(const std::string& shard_id) {
  if (contains(shard_id)) {
    return;
  }
  const std::uint64_t seed = shard_seed(shard_id);
  points_.reserve(points_.size() + kVnodes);
  for (std::size_t v = 0; v < kVnodes; ++v) {
    points_.push_back(Point{mix64(seed + v), shard_id});
  }
  std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
    return a.position != b.position ? a.position < b.position
                                    : a.shard < b.shard;
  });
  ++shard_count_;
}

void HashRing::remove(const std::string& shard_id) {
  const std::size_t before = points_.size();
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [&](const Point& point) {
                                 return point.shard == shard_id;
                               }),
                points_.end());
  if (points_.size() != before) {
    --shard_count_;
  }
}

bool HashRing::contains(const std::string& shard_id) const {
  return std::any_of(points_.begin(), points_.end(), [&](const Point& point) {
    return point.shard == shard_id;
  });
}

std::vector<std::string> HashRing::shards() const {
  std::vector<std::string> ids;
  ids.reserve(shard_count_);
  for (const Point& point : points_) {
    ids.push_back(point.shard);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::optional<std::string> HashRing::owner(std::uint64_t key) const {
  if (points_.empty()) {
    return std::nullopt;
  }
  const std::uint64_t position = mix64(key);
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), position,
      [](const Point& point, std::uint64_t want) {
        return point.position < want;
      });
  return it == points_.end() ? points_.front().shard : it->shard;
}

}  // namespace resilience::net
