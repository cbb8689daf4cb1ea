#include "resilience/service/sweep_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "resilience/service/serialize.hpp"
#include "resilience/util/atomic_file.hpp"
#include "resilience/util/fnv1a.hpp"
#include "resilience/util/json.hpp"

namespace resilience::service {

namespace {

namespace fs = std::filesystem;

constexpr const char* kSidecarName = "seed_index.json";
constexpr const char* kSpillFormat = "sweep-table-spill-v1";
constexpr const char* kSimSpillFormat = "sim-table-spill-v1";

bool is_sim(const SweepCache::Table& table) {
  return std::holds_alternative<std::shared_ptr<const SimTable>>(table);
}

fs::path spill_path(const std::string& dir, core::GridSignature signature,
                    bool sim) {
  return fs::path(dir) / (signature.hex() + (sim ? ".sim.json" : ".json"));
}

void warn(const char* what, const std::string& detail) {
  std::fprintf(stderr, "SweepCache: %s (%s)\n", what, detail.c_str());
}

/// FNV-1a 64 over the spilled payload bytes. The filename signature only
/// covers the table's *inputs* (points, kinds, options), so without this
/// a flipped bit inside a result field (overhead, work, n, m) would
/// verify clean; the payload checksum closes that hole. Carried as a
/// GridSignature purely for its hex round trip.
core::GridSignature payload_checksum(const std::string& payload) {
  return core::GridSignature{util::fnv1a(payload)};
}

/// The on-disk document: the canonical table JSON wrapped with its mode's
/// format tag and its payload checksum. The payload is written first, so
/// its checksum can precede it, and spliced into the document as is:
/// parse -> re-dump of the payload is byte-identical, which is what lets
/// the loader re-derive the checksum.
std::string spill_document(const SweepCache::Table& table) {
  const std::string payload = std::visit(
      [](const auto& shared) { return to_json_text(*shared); }, table);
  std::string document;
  util::JsonWriter(document)
      .begin_object()
      .member("format", is_sim(table) ? kSimSpillFormat : kSpillFormat)
      .member("payload_fnv", payload_checksum(payload).hex())
      .key("table")
      .raw(payload)
      .end_object();
  return document;
}

/// A spill's table, verified by table_from_json, and the signature its
/// content hashes to through the table's own table_signature hook.
template <class TableT>
SweepCache::Table decode_and_sign(const util::JsonValue& json,
                                  const core::SweepOptions& options,
                                  core::GridSignature& signature) {
  auto table = std::make_shared<const TableT>(table_from_json<TableT>(json));
  signature =
      table_signature(table->points, table->kinds, table->header, options);
  return table;
}

/// Writes one spill file atomically (util::write_file_atomic: unique
/// temp file + rename): a concurrent lazy load must never observe a
/// truncated half-write, only the old or the new complete document — and
/// the per-writer temp name keeps two concurrent spills of the same
/// signature (identical content, so last rename wins harmlessly) from
/// interleaving into one tmp file. Returns false (after a warning) on
/// failure.
bool write_spill_file(const fs::path& path, const std::string& document) {
  std::string error;
  if (!util::write_file_atomic(path.string(), document, &error)) {
    warn("spill failed", error);
    return false;
  }
  return true;
}

}  // namespace

SweepCache::SweepCache(std::size_t capacity, std::string cache_dir)
    : capacity_(capacity), cache_dir_(std::move(cache_dir)) {
  if (capacity_ == 0) {
    cache_dir_.clear();  // capacity 0 disables every tier, disk included
  }
  if (!cache_dir_.empty()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    try {
      load_disk_index_locked();
    } catch (const std::exception& error) {
      warn("cannot index cache directory; disk tier disabled", error.what());
      cache_dir_.clear();
    }
  }
}

SweepCache::~SweepCache() {
  try {
    persist_now();
  } catch (...) {
    // Destructor: a failed spill only loses warmth, never correctness.
  }
}

template <class TableT>
std::shared_ptr<const TableT> SweepCache::find(
    core::GridSignature signature, const core::SweepOptions& options,
    bool* loaded_from_disk) {
  if (loaded_from_disk != nullptr) {
    *loaded_from_disk = false;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(signature.value);
  const bool in_memory = it != index_.end();
  const Entry* entry =
      in_memory ? &*it->second : load_from_disk_locked(signature, options);
  const auto* table =
      entry == nullptr
          ? nullptr
          : std::get_if<std::shared_ptr<const TableT>>(&entry->table);
  if (table == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  if (in_memory) {
    lru_.splice(lru_.begin(), lru_, it->second);  // promote; iterator stays valid
  } else if (loaded_from_disk != nullptr) {
    *loaded_from_disk = true;
  }
  return *table;
}

template std::shared_ptr<const core::SweepTable> SweepCache::find(
    core::GridSignature, const core::SweepOptions&, bool*);
template std::shared_ptr<const SimTable> SweepCache::find(
    core::GridSignature, const core::SweepOptions&, bool*);

template <class TableT>
std::shared_ptr<const TableT> SweepCache::find_resident(
    core::GridSignature signature) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(signature.value);
  if (it == index_.end()) {
    return nullptr;
  }
  const auto* table =
      std::get_if<std::shared_ptr<const TableT>>(&it->second->table);
  return table == nullptr ? nullptr : *table;
}

template std::shared_ptr<const core::SweepTable> SweepCache::find_resident(
    core::GridSignature) const;
template std::shared_ptr<const SimTable> SweepCache::find_resident(
    core::GridSignature) const;

void SweepCache::count_hit(core::GridSignature signature) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++hits_;
  const auto it = index_.find(signature.value);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
  }
}

void SweepCache::insert(core::GridSignature signature, Table table,
                        std::vector<core::GridChain> chains) {
  if (capacity_ == 0) {
    return;
  }
  std::vector<Entry> victims;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(signature.value);
    if (it != index_.end()) {
      unindex_chains_locked(signature, it->second->chains);
      it->second->table = std::move(table);
      it->second->chains = std::move(chains);
      index_chains_locked(signature, it->second->chains);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{signature, std::move(table), std::move(chains)});
    index_[signature.value] = lru_.begin();
    index_chains_locked(signature, lru_.front().chains);
    bool sidecar_dirty = false;
    while (lru_.size() > capacity_) {
      Entry& victim = lru_.back();
      index_.erase(victim.signature.value);
      if (cache_dir_.empty()) {
        // No disk tier: the optima are gone, stop advertising them.
        unindex_chains_locked(victim.signature, victim.chains);
      } else if (disk_index_.count(victim.signature.value) != 0) {
        // Already spilled — the file content is a pure function of the
        // signature, so rewriting it would only waste IO and race
        // concurrent loads with a truncated file. Just make sure the
        // chains stay reachable for the seed tier.
        sidecar_dirty = keep_chains_locked(victim) || sidecar_dirty;
      } else {
        victims.push_back(std::move(victim));  // spilled below, unlocked
      }
      lru_.pop_back();
    }
    if (sidecar_dirty) {
      write_sidecar_locked();
    }
  }
  spill_evicted(std::move(victims));
}

void SweepCache::spill_evicted(std::vector<Entry> victims) {
  if (victims.empty()) {
    return;
  }
  // Expensive part without the lock: canonical serialization + file IO.
  std::vector<bool> spilled(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const Entry& victim = victims[i];
    spilled[i] = write_spill_file(
        spill_path(cache_dir_, victim.signature, is_sim(victim.table)),
        spill_document(victim.table));
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  bool sidecar_dirty = false;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const Entry& victim = victims[i];
    if (spilled[i]) {
      disk_index_[victim.signature.value] = is_sim(victim.table);
      sidecar_dirty = keep_chains_locked(victim) || sidecar_dirty;
    } else if (index_.find(victim.signature.value) == index_.end()) {
      // Spill failed and nobody re-inserted the signature meanwhile: the
      // optima are unreachable, so the seed index must drop them.
      unindex_chains_locked(victim.signature, victim.chains);
    }
  }
  if (sidecar_dirty) {
    write_sidecar_locked();
  }
}

std::vector<core::ChainSeed> SweepCache::seeds_for(
    core::ChainKey key, const core::SweepOptions& options) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = seed_index_.find(key.value);
  if (it == seed_index_.end()) {
    return {};
  }
  // Copy: lazy disk promotion below may grow/shuffle the index vectors.
  const std::vector<std::uint64_t> signatures = it->second;
  std::vector<core::ChainSeed> seeds;
  for (const std::uint64_t signature_value : signatures) {
    const Entry* entry = nullptr;
    const auto entry_it = index_.find(signature_value);
    if (entry_it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, entry_it->second);
      entry = &*entry_it->second;
    } else {
      entry = load_from_disk_locked(core::GridSignature{signature_value},
                                    options);
    }
    const auto* shared =
        entry == nullptr
            ? nullptr
            : std::get_if<std::shared_ptr<const core::SweepTable>>(
                  &entry->table);
    if (shared == nullptr) {
      continue;
    }
    const core::SweepTable& table = **shared;
    for (const core::GridChain& chain : entry->chains) {
      if (chain.key != key) {
        continue;
      }
      const auto kind_index = static_cast<std::size_t>(chain.kind);
      if (kind_index >= table.kind_slot.size() ||
          table.kind_slot[kind_index] < 0) {
        continue;  // family absent from the table (stale sidecar entry)
      }
      for (std::size_t p = 0; p < table.points.size(); ++p) {
        const core::ScenarioPoint& point = table.points[p];
        if (point.platform_index != chain.platform_index ||
            point.cost_index != chain.cost_index) {
          continue;
        }
        seeds.push_back(core::ChainSeed{point.platform.nodes, point.params,
                                        table.cell(p, chain.kind)});
      }
    }
  }
  if (!seeds.empty()) {
    ++seed_hits_;
  }
  return seeds;
}

bool SweepCache::contains(core::GridSignature signature) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return index_.find(signature.value) != index_.end() ||
         disk_index_.count(signature.value) != 0;
}

bool SweepCache::has_seeds(core::ChainKey key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return seed_index_.find(key.value) != seed_index_.end();
}

void SweepCache::persist_now() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (cache_dir_.empty()) {
    return;
  }
  for (const Entry& entry : lru_) {
    // Already spilled entries keep identical content (a pure function of
    // the signature); either way their chains stay reachable.
    if (disk_index_.count(entry.signature.value) != 0 || spill_locked(entry)) {
      keep_chains_locked(entry);
    }
  }
  write_sidecar_locked();
}

void SweepCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  // The seed index keeps only what the disk tier still backs.
  seed_index_.clear();
  for (const auto& [signature_value, chains] : disk_chains_) {
    index_chains_locked(core::GridSignature{signature_value}, chains);
  }
}

std::size_t SweepCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::uint64_t SweepCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t SweepCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t SweepCache::seed_hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return seed_hits_;
}

std::uint64_t SweepCache::disk_loads() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return disk_loads_;
}

std::uint64_t SweepCache::disk_rejects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return disk_rejects_;
}

void SweepCache::index_chains_locked(
    core::GridSignature signature, const std::vector<core::GridChain>& chains) {
  for (const core::GridChain& chain : chains) {
    std::vector<std::uint64_t>& owners = seed_index_[chain.key.value];
    if (std::find(owners.begin(), owners.end(), signature.value) ==
        owners.end()) {
      owners.push_back(signature.value);
    }
  }
}

void SweepCache::unindex_chains_locked(
    core::GridSignature signature, const std::vector<core::GridChain>& chains) {
  for (const core::GridChain& chain : chains) {
    const auto it = seed_index_.find(chain.key.value);
    if (it == seed_index_.end()) {
      continue;
    }
    it->second.erase(
        std::remove(it->second.begin(), it->second.end(), signature.value),
        it->second.end());
    if (it->second.empty()) {
      seed_index_.erase(it);
    }
  }
}

bool SweepCache::keep_chains_locked(const Entry& entry) {
  if (entry.chains.empty() ||
      disk_chains_.find(entry.signature.value) != disk_chains_.end()) {
    return false;
  }
  disk_chains_[entry.signature.value] = entry.chains;
  return true;
}

void SweepCache::evict_one_locked() {
  // Locked spill path: only reached from lazy disk promotion (rare —
  // once per reloaded entry); bulk evictions go through spill_evicted.
  // Promotion victims are usually disk-resident already (the common churn
  // is reload A -> evict B where B was itself reloaded), so the
  // already-on-disk check below makes re-eviction a pure in-memory pop.
  Entry& victim = lru_.back();
  const bool spilled =
      !cache_dir_.empty() &&
      (disk_index_.count(victim.signature.value) != 0 || spill_locked(victim));
  if (!spilled) {
    // No disk tier (or the spill failed): the optima are gone, so the
    // seed index must stop advertising them.
    unindex_chains_locked(victim.signature, victim.chains);
  } else if (keep_chains_locked(victim)) {
    write_sidecar_locked();
  }
  index_.erase(victim.signature.value);
  lru_.pop_back();
}

bool SweepCache::spill_locked(const Entry& entry) {
  const bool sim = is_sim(entry.table);
  if (!write_spill_file(spill_path(cache_dir_, entry.signature, sim),
                        spill_document(entry.table))) {
    return false;
  }
  disk_index_[entry.signature.value] = sim;
  return true;
}

void SweepCache::write_sidecar_locked() {
  // Deterministic sidecar: entries sorted by signature hex.
  std::vector<std::uint64_t> signatures;
  signatures.reserve(disk_chains_.size());
  for (const auto& [signature_value, chains] : disk_chains_) {
    signatures.push_back(signature_value);
  }
  std::sort(signatures.begin(), signatures.end());

  util::JsonValue entries = util::JsonValue::array();
  for (const std::uint64_t signature_value : signatures) {
    util::JsonValue chains = util::JsonValue::array();
    for (const core::GridChain& chain : disk_chains_[signature_value]) {
      util::JsonValue chain_json = util::JsonValue::object();
      chain_json.set("key", chain.key.hex());
      chain_json.set("platform_index", chain.platform_index);
      chain_json.set("cost_index", chain.cost_index);
      chain_json.set("kind", core::pattern_name(chain.kind));
      chains.push_back(std::move(chain_json));
    }
    util::JsonValue entry = util::JsonValue::object();
    entry.set("signature", core::GridSignature{signature_value}.hex());
    entry.set("chains", std::move(chains));
    entries.push_back(std::move(entry));
  }
  util::JsonValue sidecar = util::JsonValue::object();
  sidecar.set("version", 1);
  sidecar.set("entries", std::move(entries));

  // Atomic like the spill files themselves: a crash (or a concurrent
  // reader) must never see a truncated sidecar — it would poison the
  // next startup's seed index for every spilled table at once.
  const fs::path path = fs::path(cache_dir_) / kSidecarName;
  std::string error;
  if (!util::write_file_atomic(path.string(), sidecar.dump(2), &error)) {
    warn("seed sidecar write failed", error);
  }
}

void SweepCache::load_disk_index_locked() {
  fs::create_directories(cache_dir_);
  for (const fs::directory_entry& file : fs::directory_iterator(cache_dir_)) {
    if (!file.is_regular_file() || file.path().extension() != ".json") {
      continue;
    }
    const fs::path stem = file.path().stem();  // "<hex>" or "<hex>.sim"
    const bool sim = stem.extension() == ".sim";
    if (const auto signature = core::GridSignature::from_hex(
            (sim ? stem.stem() : stem).string())) {
      disk_index_[signature->value] = sim;
    }
  }

  const fs::path sidecar_path = fs::path(cache_dir_) / kSidecarName;
  if (!fs::exists(sidecar_path)) {
    return;
  }
  try {
    std::ifstream in(sidecar_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const util::JsonValue sidecar = util::JsonValue::parse(buffer.str());
    const util::JsonValue* entries = sidecar.find("entries");
    if (entries == nullptr) {
      return;
    }
    for (const util::JsonValue& entry : entries->as_array()) {
      const util::JsonValue* signature_json = entry.find("signature");
      const util::JsonValue* chains_json = entry.find("chains");
      if (signature_json == nullptr || chains_json == nullptr) {
        continue;
      }
      const auto signature =
          core::GridSignature::from_hex(signature_json->as_string());
      if (!signature || disk_index_.count(signature->value) == 0) {
        continue;  // sidecar entry without a spill file
      }
      std::vector<core::GridChain> chains;
      for (const util::JsonValue& chain_json : chains_json->as_array()) {
        const util::JsonValue* key = chain_json.find("key");
        const util::JsonValue* platform_index =
            chain_json.find("platform_index");
        const util::JsonValue* cost_index = chain_json.find("cost_index");
        const util::JsonValue* kind = chain_json.find("kind");
        if (key == nullptr || platform_index == nullptr ||
            cost_index == nullptr || kind == nullptr) {
          continue;
        }
        const auto chain_key = core::ChainKey::from_hex(key->as_string());
        if (!chain_key) {
          continue;
        }
        core::GridChain chain;
        chain.key = *chain_key;
        chain.platform_index =
            static_cast<std::size_t>(platform_index->as_double());
        chain.cost_index = static_cast<std::size_t>(cost_index->as_double());
        chain.kind = core::pattern_kind_from_name(kind->as_string());
        chains.push_back(chain);
      }
      disk_chains_[signature->value] = std::move(chains);
      index_chains_locked(*signature, disk_chains_[signature->value]);
    }
  } catch (const std::exception& error) {
    // A corrupt sidecar only costs seed reuse; the identity tier still
    // verifies every file it loads.
    warn("ignoring unreadable seed sidecar", error.what());
  }
}

const SweepCache::Entry* SweepCache::load_from_disk_locked(
    core::GridSignature signature, const core::SweepOptions& options) {
  const auto disk_it = disk_index_.find(signature.value);
  if (cache_dir_.empty() || disk_it == disk_index_.end()) {
    return nullptr;
  }
  const bool sim = disk_it->second;
  const fs::path path = spill_path(cache_dir_, signature, sim);
  const auto reject = [&](const char* why, const std::string& detail) {
    warn(why, detail);
    ++disk_rejects_;
    // Stop advertising the file: serving it later would repeat the
    // failure, and the seed index must not keep pointing at it.
    disk_index_.erase(signature.value);
    const auto chains_it = disk_chains_.find(signature.value);
    if (chains_it != disk_chains_.end() &&
        index_.find(signature.value) == index_.end()) {
      unindex_chains_locked(signature, chains_it->second);
      disk_chains_.erase(chains_it);
    }
  };

  Table table;
  core::GridSignature recomputed;
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      reject("cannot open spill file", path.string());
      return nullptr;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const util::JsonValue document = util::JsonValue::parse(buffer.str());
    const util::JsonValue* format = document.find("format");
    const util::JsonValue* checksum = document.find("payload_fnv");
    const util::JsonValue* table_json = document.find("table");
    // The format tag picks the decoder and must match the file's name: a
    // '.json' file holds an analytic table, a '.sim.json' file a simulate
    // one.
    if (format == nullptr ||
        format->as_string() != (sim ? kSimSpillFormat : kSpillFormat) ||
        checksum == nullptr || table_json == nullptr) {
      reject("rejecting spill file with unknown format", path.string());
      return nullptr;
    }
    // Result-field integrity: the payload's canonical re-dump must hash
    // back to the stored checksum (parse -> dump is byte-identical, so
    // this validates the original payload bytes, cells included — the
    // filename signature below only covers the table's inputs).
    const auto stored = core::GridSignature::from_hex(checksum->as_string());
    if (!stored || payload_checksum(table_json->dump()) != *stored) {
      reject("rejecting spill file whose payload checksum does not match",
             path.string());
      return nullptr;
    }
    // The content must hash back to the filename: an analytic table under
    // the caller's result-affecting options, a simulate table over the
    // SimParams it carries. A corrupt or foreign spill (or one written
    // under a different configuration) is recomputed, never served.
    table = sim ? decode_and_sign<SimTable>(*table_json, options, recomputed)
                : decode_and_sign<core::SweepTable>(*table_json, options,
                                                    recomputed);
  } catch (const std::exception& error) {
    reject("rejecting unparseable spill file", path.string() + ": " +
                                                   error.what());
    return nullptr;
  }
  if (recomputed != signature) {
    reject("rejecting spill file whose content does not match its signature",
           path.string() + ": content hashes to " + recomputed.hex());
    return nullptr;
  }

  ++disk_loads_;
  std::vector<core::GridChain> chains;
  const auto chains_it = disk_chains_.find(signature.value);
  if (chains_it != disk_chains_.end()) {
    chains = chains_it->second;
  }
  lru_.push_front(Entry{signature, std::move(table), std::move(chains)});
  index_[signature.value] = lru_.begin();
  index_chains_locked(signature, lru_.front().chains);
  while (lru_.size() > capacity_) {
    evict_one_locked();  // never the new front: capacity is at least 1 here
  }
  return &lru_.front();
}

}  // namespace resilience::service
