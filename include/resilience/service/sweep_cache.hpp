#pragma once

// Thread-safe LRU cache of finished result tables keyed by signature.
// Analytic core::SweepTables (GridSignature) and simulate SimTables
// (sim_signature, service/sim_table.hpp) share every structure: one LRU
// whose `capacity` bounds the tables of both modes, one index, one disk
// index, one spill writer and one verified loader. A lookup names the
// table type it wants; finding the other mode's table under the signature
// is a miss. Grown into a partial-result accelerator with three tiers:
//
//  * identity tier — find(signature): the exact table was computed before;
//    a hit hands out the same shared immutable table the compute produced,
//    so it is bit-identical to a recompute by construction.
//  * seed tier — seeds_for(chain key): any cached analytic table sharing a
//    chain (same base platform + cost override + family + result-affecting
//    options — see core::ChainKey) supplies that chain's finished cells as
//    ChainSeeds, so a *different* grid warm-starts from — and, at bit-equal
//    resolved parameters, outright reuses — per-point optima. Simulate
//    tables have no seed tier: Monte Carlo campaigns share no "bit-equal
//    point" granularity the way analytic chains do.
//  * disk tier — with a cache_dir, evicted and shutdown entries spill to
//    '<dir>/<signature-hex>.json' (analytic) or '<signature-hex>.sim.json'
//    (simulate): the canonical table serialization, whose round trip is
//    byte-identical, wrapped with a format tag and a payload checksum;
//    a 'seed_index.json' sidecar records each spilled analytic table's
//    chains. Both the identity and seed tiers reload lazily: a lookup that
//    misses memory parses the file, and the format tag picks the table
//    type, decoded by the one verified table_from_json and signed by its
//    table_signature hook (grid_signature under the caller's options, or
//    sim_signature over the table's own SimParams). Any file that fails —
//    a tag that does not match the file name, a payload checksum
//    mismatch, a table the decoder rejects (points out of grid order, a
//    cell out of its slot), content that does not hash back to its
//    filename — is rejected with a stderr warning. A corrupt or foreign spill (or one
//    written under different result-affecting options) is never served.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "resilience/core/sweep.hpp"
#include "resilience/service/sim_table.hpp"

namespace resilience::service {

/// Collision guard for every signature-keyed reuse path: a cached table
/// may serve a request only if it is the table OF that request's resolved
/// grid. The hash is not cryptographic and request bytes are
/// client-controlled, so a colliding grid must fall through to its own
/// computation rather than silently receive another grid's cells. Works on
/// both table types (SweepService additionally compares the header).
template <class Table>
[[nodiscard]] bool table_matches_grid(
    const Table& table, const std::vector<core::ScenarioPoint>& points,
    const std::vector<core::PatternKind>& kinds) {
  if (table.kinds != kinds || table.points.size() != points.size()) {
    return false;
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!core::points_bit_identical(table.points[i], points[i])) {
      return false;
    }
  }
  return true;
}

class SweepCache {
 public:
  /// A cached table of either mode.
  using Table = std::variant<std::shared_ptr<const core::SweepTable>,
                             std::shared_ptr<const SimTable>>;

  /// `capacity` is the maximum number of retained tables of both modes
  /// together; 0 disables caching entirely — find always misses, insert is
  /// a no-op, and any `cache_dir` is ignored. Otherwise a non-empty
  /// `cache_dir` enables the disk tier: the directory is created if
  /// missing, existing spills are indexed (lazily — filenames and the seed
  /// sidecar only; tables load on first use), and retained entries spill
  /// there on eviction and destruction. Spill *writes* happen with the
  /// mutex released (see spill_evicted); lazy *loads* parse under the lock
  /// — they occur at most once per entry per process (first use after a
  /// restart), which keeps the steady-state serving path unstalled.
  /// Revisit if restart warm-up ever contends.
  explicit SweepCache(std::size_t capacity = 64, std::string cache_dir = "");

  /// Spills every retained entry to the disk tier (when enabled).
  ~SweepCache();

  SweepCache(const SweepCache&) = delete;
  SweepCache& operator=(const SweepCache&) = delete;

  /// Memory-then-disk lookup of a `TableT` (core::SweepTable or SimTable):
  /// on a memory miss, loads and verifies the signature's spill (see the
  /// disk tier above; `options` verify analytic spills), promotes it into
  /// the LRU and returns it. A hit marks the entry most-recently-used;
  /// nullptr on a miss, which includes finding the other mode's table.
  /// Sets *loaded_from_disk when the hit came from the disk tier.
  template <class TableT = core::SweepTable>
  [[nodiscard]] std::shared_ptr<const TableT> find(
      core::GridSignature signature, const core::SweepOptions& options = {},
      bool* loaded_from_disk = nullptr);

  /// Memory-tier probe for the replay-only rung (SweepService::Rungs):
  /// the resident `TableT` under `signature`, or nullptr. No disk load,
  /// no LRU promotion and no counter, so a probe the caller then rejects
  /// leaves no trace; count_hit records one it serves.
  template <class TableT = core::SweepTable>
  [[nodiscard]] std::shared_ptr<const TableT> find_resident(
      core::GridSignature signature) const;

  /// Records a served find_resident result as find() records a memory
  /// hit: one lookup hit, and the entry (if still resident) becomes the
  /// most recently used.
  void count_hit(core::GridSignature signature);

  /// Inserts (or refreshes) an entry, evicting — and, with a cache_dir,
  /// spilling — the least-recently-used table when over capacity.
  /// Inserting under an existing signature replaces the entry, whatever
  /// its mode; outstanding shared_ptrs stay valid. `chains` (analytic
  /// tables only) index the table's chains for seeds_for().
  void insert(core::GridSignature signature, Table table,
              std::vector<core::GridChain> chains = {});

  /// Finished cells of every cached chain matching `key`, from memory or
  /// (verified) disk. `options` verify lazily loaded files; tables that
  /// fail verification are skipped with a warning. Empty when no cached
  /// grid shares the chain.
  [[nodiscard]] std::vector<core::ChainSeed> seeds_for(
      core::ChainKey key, const core::SweepOptions& options);

  /// Non-mutating probe: would find(signature) hit (memory or disk tier)?
  /// Purely observational — no LRU promotion, no hit/miss counter bump, no
  /// disk IO — so cost estimation can consult the cache without perturbing
  /// the stats the protocol exposes. A `true` for a disk-resident entry is
  /// optimistic (the file might still fail verification on load); the
  /// estimator only needs "probably warm", not a guarantee.
  [[nodiscard]] bool contains(core::GridSignature signature) const;

  /// Non-mutating probe: does the seed tier advertise at least one cached
  /// chain under `key`? Same observational contract as contains().
  [[nodiscard]] bool has_seeds(core::ChainKey key) const;

  /// Spills all in-memory entries (and the seed sidecar) without dropping
  /// them from memory; no-op without a cache_dir. The destructor calls it.
  void persist_now();

  /// Drops every in-memory entry; the disk tier is untouched.
  void clear();

  /// Retained tables of both modes.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const std::string& cache_dir() const noexcept {
    return cache_dir_;
  }
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  /// seeds_for() calls that returned at least one seed.
  [[nodiscard]] std::uint64_t seed_hits() const;
  /// Disk-tier tables served (after verification) / rejected (corrupt,
  /// foreign, or computed under different result-affecting options).
  [[nodiscard]] std::uint64_t disk_loads() const;
  [[nodiscard]] std::uint64_t disk_rejects() const;

 private:
  struct Entry {
    core::GridSignature signature;
    Table table;
    std::vector<core::GridChain> chains;  // empty for simulate tables
  };

  /// Serializes and writes `victims` to the disk tier with the mutex
  /// RELEASED (table serialization and file IO are the expensive part of
  /// an eviction; doing them under the lock would stall every concurrent
  /// find/seeds_for), then re-locks to register the outcomes. Victims
  /// must already be detached from lru_/index_; in the IO window they are
  /// simply absent from both tiers, which readers treat as a miss.
  void spill_evicted(std::vector<Entry> victims);

  // All helpers below expect mutex_ to be held.
  void index_chains_locked(core::GridSignature signature,
                           const std::vector<core::GridChain>& chains);
  void unindex_chains_locked(core::GridSignature signature,
                             const std::vector<core::GridChain>& chains);
  /// Keeps a spilled entry's chains reachable for the seed tier once it
  /// leaves memory; true when that added chains the sidecar lacks.
  bool keep_chains_locked(const Entry& entry);
  void evict_one_locked();
  /// Writes the entry's spill file and indexes it; false (after a
  /// warning) when the write failed.
  bool spill_locked(const Entry& entry);
  void write_sidecar_locked();
  void load_disk_index_locked();
  /// Loads, verifies and promotes the signature's spill; the promoted
  /// entry, or nullptr when there is none or it was rejected.
  const Entry* load_from_disk_locked(core::GridSignature signature,
                                     const core::SweepOptions& options);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::string cache_dir_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  /// chain key -> signatures of cached tables (memory or disk) containing
  /// that chain, in insertion order.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> seed_index_;
  /// Signatures with a (not yet invalidated) file in the disk tier, mapped
  /// to whether that file is a simulate spill ('<hex>.sim.json').
  std::unordered_map<std::uint64_t, bool> disk_index_;
  /// Chains of disk-resident tables (from spills + the sidecar), so a
  /// reloaded entry keeps feeding the seed tier after a later re-eviction.
  std::unordered_map<std::uint64_t, std::vector<core::GridChain>> disk_chains_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t seed_hits_ = 0;
  std::uint64_t disk_loads_ = 0;
  std::uint64_t disk_rejects_ = 0;
};

}  // namespace resilience::service
