#include "resilience/net/router.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <utility>

#include "resilience/net/resilient_client.hpp"
#include "resilience/service/serialize.hpp"

namespace resilience::net {

namespace {

/// Cap on the wait between overload rounds, whatever retry_after_ms a
/// busy shard asks for: the client's own backoff takes longer waits.
constexpr std::int64_t kOverloadWaitCapMs = 250;

std::string default_shard_id(const ShardConfig& config) {
  return config.host + ":" + std::to_string(config.port);
}

/// One sub-request: chains with one owning shard, platform and cost
/// override. The shard runs the unit's families as one grid on its own
/// pool while the other shards run theirs.
struct Unit {
  std::size_t platform_index = 0;
  std::size_t cost_index = 0;
  std::vector<std::size_t> chain_indices;  ///< into the request's chains
};
/// One dispatch round's units for one shard (by id).
using ShardUnits = std::pair<std::string, std::vector<Unit>>;

/// Plan: routes the pending chains through the current ring and groups
/// them into units — shards in configuration order, units in first-seen
/// chain order. nullopt when a chain has no live owner.
std::optional<std::vector<ShardUnits>> plan(
    const ShardFleet& fleet, const std::vector<core::GridChain>& chains,
    const std::vector<std::size_t>& pending) {
  std::vector<ShardUnits> work;
  for (const std::string& id : fleet.shard_ids()) {
    work.emplace_back(id, std::vector<Unit>());
  }
  for (const std::size_t index : pending) {
    const core::GridChain& chain = chains[index];
    const std::optional<std::string> owner = fleet.route(chain.key.value);
    const auto shard = std::find_if(work.begin(), work.end(), [&](auto& w) {
      return owner == w.first;
    });
    if (shard == work.end()) {
      return std::nullopt;
    }
    std::vector<Unit>& units = shard->second;
    auto unit = std::find_if(units.begin(), units.end(), [&](auto& u) {
      return u.platform_index == chain.platform_index &&
             u.cost_index == chain.cost_index;
    });
    if (unit == units.end()) {
      unit = units.insert(units.end(),
                          Unit{chain.platform_index, chain.cost_index, {}});
    }
    unit->chain_indices.push_back(index);
  }
  std::erase_if(work, [](const ShardUnits& w) { return w.second.empty(); });
  return work;
}

/// The unit's sub-request: the parent request with its grid restricted
/// to one platform and one cost override, families = the unit's chains.
/// Everything else travels verbatim: the simulate mode and every sim
/// field (budgets AND axes, all result-affecting), the deadline, and the
/// stats opt-in. The explicit id names the unit whatever line of its
/// kept connection it is, and never reaches the merged output.
service::ScenarioRequest sub_request(const service::ResolvedRequest& parent,
                                     const Unit& unit) {
  const core::ScenarioGrid& grid = parent.request.grid;
  service::ScenarioRequest sub = parent.request;
  sub.grid.platforms = {grid.platforms[unit.platform_index]};
  if (!grid.cost_overrides.empty()) {
    sub.grid.cost_overrides = {grid.cost_overrides[unit.cost_index]};
  }
  sub.grid.kinds.clear();
  for (const std::size_t index : unit.chain_indices) {
    sub.grid.kinds.push_back(parent.chains[index].kind);
  }
  sub.id = parent.request.id + "#" +
           parent.chains[unit.chain_indices.front()].key.hex();
  return sub;
}

std::string string_member(const util::JsonValue& json, const char* key,
                          const char* fallback) {
  const util::JsonValue* value = json.find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : fallback;
}

/// One routed request's merge, both modes: the parent table every unit's
/// cells land in, and the state its rounds carry.
///
/// A unit's sub-grid keeps the parent's node and rate axes (and the sim
/// axes), so a cell keeps its family and axis values and only its point
/// index moves: sub point s of unit (platform p, cost override c) is
/// parent point (p * chain_len + s) * costs_n + c. Its slot is the
/// table's cell_index of that point, its family's column and its
/// sub_index — the rule table_from_json verifies a decoded table by.
template <class Table>
struct Merge {
  using Cell = typename decltype(Table::cells)::value_type;

  /// `header` is the parent table's (its sim block, for simulate).
  Merge(service::ResolvedRequest& request, decltype(Table::header) header)
      : chains(request.chains) {
    const core::ScenarioGrid& grid = request.request.grid;
    chain_len = std::max<std::size_t>(1, grid.node_counts.size()) *
                std::max<std::size_t>(1, grid.rate_factors.size());
    costs_n = std::max<std::size_t>(1, grid.cost_overrides.size());
    table.points = std::move(request.points);  // only their count is sent
    table.kinds = request.kinds;
    table.header = std::move(header);
    table.index_kinds();
    table.cells.resize(table.cell_count());
    placed.resize(table.cells.size());
  }

  /// Merges one unit's answer. False, leaving the table as it was, when
  /// the answer is malformed: a line that is not a cell, done or error
  /// line, a line signed other than `signature`, or cells that do not
  /// fill the unit's slots exactly once each. A shard's own error line
  /// (deadline, engine failure) is kept as the request's error.
  bool add(const Unit& unit, const std::string& shard,
           const std::vector<std::string>& lines,
           core::GridSignature signature) {
    std::vector<Cell> cells;
    bool done = false;
    bool cache_hit = false;
    bool joined = false;
    std::optional<util::JsonValue> stats;
    std::optional<std::pair<std::string, std::string>> shard_error;
    try {
      for (const std::string& line : lines) {
        const util::JsonValue json = util::JsonValue::parse(line);
        const std::string type = string_member(json, "type", "");
        if (type == "error") {
          shard_error.emplace(string_member(json, "field", ""),
                              string_member(json, "message", "shard error"));
          continue;
        }
        const util::JsonValue* signed_as = json.find("signature");
        if ((type != "cell" && type != "done") || signed_as == nullptr ||
            signed_as->as_string() != signature.hex()) {
          return false;
        }
        if (type == "cell") {
          cells.push_back(service::cell_from_json<Cell>(json));
        } else {
          const util::JsonValue* hit = json.find("cache_hit");
          const util::JsonValue* join = json.find("joined_in_flight");
          cache_hit = hit != nullptr && hit->as_bool();
          joined = join != nullptr && join->as_bool();
          if (const util::JsonValue* block = json.find("stats")) {
            stats = *block;
          }
          done = true;
        }
      }
    } catch (const std::exception&) {
      return false;
    }
    if (shard_error) {
      if (!error) {
        error = std::move(shard_error);
      }
      return true;
    }
    if (!done || !place(unit, cells)) {
      return false;
    }
    all_cache_hit = all_cache_hit && cache_hit;
    all_joined = all_joined && joined;
    if (stats) {
      shard_stats[shard] = std::move(*stats);
    }
    return true;
  }

  /// Stores the unit's cells in their parent slots, renumbered; false,
  /// storing nothing, unless they fill the unit's slots exactly once.
  bool place(const Unit& unit, std::vector<Cell>& cells) {
    const std::size_t subs = sub_cells(table.header);
    if (cells.size() != chain_len * subs * unit.chain_indices.size()) {
      return false;
    }
    unsigned unit_kinds = 0;  // bit k: family k is one of the unit's chains
    for (const std::size_t index : unit.chain_indices) {
      unit_kinds |= 1u << static_cast<unsigned>(chains[index].kind);
    }
    ++epoch;
    std::vector<std::size_t> slots;
    slots.reserve(cells.size());
    for (Cell& cell : cells) {
      const auto kind = static_cast<std::size_t>(cell.kind);
      const std::size_t sub = sub_index(cell, table.header);
      if (cell.point_index >= chain_len || ((unit_kinds >> kind) & 1u) == 0 ||
          sub >= subs) {
        return false;
      }
      cell.point_index =
          (unit.platform_index * chain_len + cell.point_index) * costs_n +
          unit.cost_index;
      const std::size_t slot = table.cell_index(
          cell.point_index, static_cast<std::size_t>(table.kind_slot[kind]),
          sub);
      if (placed[slot] == epoch) {
        return false;  // a slot twice
      }
      placed[slot] = epoch;
      slots.push_back(slot);
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      table.cells[slots[i]] = cells[i];
    }
    return true;
  }

  /// The signature the unit's shard answers under: the parent's points of
  /// its (platform, cost override) and its families in sub-request order,
  /// signed per mode as resolve_request signs (no axis index is mixed).
  core::GridSignature unit_signature(const Unit& unit,
                                     const core::SweepOptions& sweep) const {
    std::vector<core::ScenarioPoint> points;
    points.reserve(chain_len);
    for (const core::ScenarioPoint& point : table.points) {
      if (point.platform_index == unit.platform_index &&
          point.cost_index == unit.cost_index) {
        points.push_back(point);
      }
    }
    std::vector<core::PatternKind> kinds;
    kinds.reserve(unit.chain_indices.size());
    for (const std::size_t index : unit.chain_indices) {
      kinds.push_back(chains[index].kind);
    }
    return table_signature(points, kinds, table.header, sweep);
  }

  Table table;
  const std::vector<core::GridChain>& chains;
  std::size_t chain_len = 1;  ///< points per unit: nodes x rates
  std::size_t costs_n = 1;    ///< cost-override axis length

  std::vector<std::uint32_t> placed;  ///< per slot: the place() that filled it
  std::uint32_t epoch = 0;            ///< place() calls so far
  std::vector<std::size_t> pending;  ///< chains for the next round
  bool round_overload = false;       ///< some unit was shed this round
  std::int64_t overload_hint_ms = 0; ///< largest retry_after_ms seen
  std::optional<std::pair<std::string, std::string>> error;  ///< field, message
  bool all_cache_hit = true;
  bool all_joined = true;
  /// Per-shard "stats" blocks from sub-response done lines. A block is a
  /// service-GLOBAL snapshot, so the latest one wins — summing across
  /// units or replay rounds would double-count.
  std::unordered_map<std::string, util::JsonValue> shard_stats;
};

/// Dispatch: runs one round's units over one checked-out connection per
/// shard, one unit in flight on each, on the calling thread. Answers are
/// read as their bytes arrive, and a shard gets its next unit as soon as
/// its own answer is read: the shards compute in parallel, and none waits
/// on another's answer. A failed connect, send or read, a malformed
/// answer, or receive_timeout_ms in which no busy shard sent a byte,
/// closes the connection, marks the shard down and puts its unanswered
/// chains back in pending for the survivors; an overloaded answer puts
/// back only that unit's chains. Connections whose every answer was read
/// go back to the fleet.
template <class Table>
void dispatch(ShardFleet& fleet, const service::ResolvedRequest& request,
              const std::vector<ShardUnits>& work, Merge<Table>& merge) {
  std::vector<std::unique_ptr<Client>> clients(work.size());
  std::vector<std::size_t> next(work.size(), 0);  // per shard: unit in flight
  std::vector<Client::Response> answers(work.size());  // its answer so far
  const auto requeue = [&merge](const Unit& unit) {
    merge.pending.insert(merge.pending.end(), unit.chain_indices.begin(),
                         unit.chain_indices.end());
  };
  const auto fail = [&](std::size_t s) {
    const auto& [id, units] = work[s];
    clients[s].reset();
    fleet.note_failure(id);
    for (; next[s] < units.size(); ++next[s]) {
      requeue(units[next[s]]);
    }
  };
  const auto send = [&](std::size_t s) {  // the unit in flight, if any
    try {
      if (next[s] < work[s].second.size()) {
        clients[s]->send_line(
            sub_request(request, work[s].second[next[s]]).to_json().dump());
      }
    } catch (const std::exception&) {
      fail(s);
    }
  };
  for (std::size_t s = 0; s < work.size(); ++s) {
    clients[s] = fleet.checkout(work[s].first);
    if (clients[s] == nullptr) {
      fail(s);
    } else {
      send(s);
    }
  }
  const int timeout_ms = fleet.options().receive_timeout_ms;
  for (;;) {
    std::vector<std::size_t> busy;  // shards with a unit in flight
    std::vector<int> fds;
    for (std::size_t s = 0; s < work.size(); ++s) {
      if (next[s] < work[s].second.size()) {
        busy.push_back(s);
        fds.push_back(clients[s]->fd());
      }
    }
    if (busy.empty()) {
      break;
    }
    const std::vector<bool> ready =
        wait_readable(fds, timeout_ms > 0 ? timeout_ms : -1);
    const bool timed_out =
        std::find(ready.begin(), ready.end(), true) == ready.end();
    for (std::size_t i = 0; i < busy.size(); ++i) {
      const std::size_t s = busy[i];
      const auto& [id, units] = work[s];
      bool ended = true;  // timed out or lost: the answer stays incomplete
      try {
        ended = timed_out ||
                (ready[i] && clients[s]->read_response_step(answers[s]));
      } catch (const std::exception&) {
        // Lost.
      }
      if (!ended) {
        continue;
      }
      std::int64_t hint_ms = 0;
      if (is_overloaded_response(answers[s], &hint_ms)) {
        fleet.note_shed(id);
        merge.round_overload = true;
        merge.overload_hint_ms = std::max(merge.overload_hint_ms, hint_ms);
        requeue(units[next[s]]);
      } else {
        if (answers[s].complete) {
          fleet.note_request(id);
        }
        // The shard must sign as the router does; another signature means
        // other result-affecting options, and wrong bytes must not merge.
        if (!answers[s].complete ||
            !merge.add(units[next[s]], id, answers[s].lines,
                       merge.unit_signature(units[next[s]], request.sweep))) {
          fail(s);
          continue;
        }
      }
      answers[s] = {};
      ++next[s];
      send(s);
    }
  }
  for (std::size_t s = 0; s < work.size(); ++s) {
    if (clients[s] != nullptr) {
      fleet.checkin(work[s].first, std::move(clients[s]));
    }
  }
}

}  // namespace

// ============================================================ ShardFleet ==

ShardFleet::ShardFleet(RouterOptions options)
    : options_(std::move(options)) {
  shards_.reserve(options_.shards.size());
  for (ShardConfig config : options_.shards) {
    if (config.id.empty()) {
      config.id = default_shard_id(config);
    }
    Shard shard;
    shard.config = std::move(config);
    shard.up = true;  // optimistic: the first failure or probe corrects it
    ring_.add(shard.config.id);
    shards_.push_back(std::move(shard));
  }
}

ShardFleet::~ShardFleet() {
  {
    const std::lock_guard<std::mutex> lock(prober_mutex_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) {
    prober_.join();
  }
}

void ShardFleet::start_prober() {
  if (options_.probe_interval_ms <= 0 || prober_.joinable()) {
    return;
  }
  prober_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(prober_mutex_);
    while (!prober_stop_) {
      prober_cv_.wait_for(lock,
                          std::chrono::milliseconds(options_.probe_interval_ms),
                          [this] { return prober_stop_; });
      if (prober_stop_) {
        return;
      }
      lock.unlock();
      probe_round();
      lock.lock();
    }
  });
}

void ShardFleet::probe_round() {
  // Probe every shard, Down ones included — a pong from a Down shard is
  // the rejoin signal. The probe pings the connection checkout hands out,
  // kept or fresh, without the fleet lock.
  for (const std::string& id : shard_ids()) {
    std::unique_ptr<Client> client = checkout(id);
    const bool alive = client != nullptr && client->ping();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.probes;
    }
    if (alive) {
      mark_up(id);
      checkin(id, std::move(client));
    } else {
      mark_down(id);
    }
  }
}

std::unique_ptr<Client> ShardFleet::checkout(const std::string& id) {
  ShardConfig config;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Shard* shard = find_locked(id);
    if (shard == nullptr) {
      return nullptr;
    }
    while (!shard->idle.empty()) {
      std::unique_ptr<Client> client = std::move(shard->idle.back());
      shard->idle.pop_back();
      if (client->quiet()) {
        return client;
      }
    }
    config = shard->config;
  }
  auto client = std::make_unique<Client>();
  try {
    client->connect(config.host, config.port, options_.connect_timeout_ms);
  } catch (const std::exception&) {
    return nullptr;
  }
  client->set_receive_timeout(options_.receive_timeout_ms);  // 0: none
  return client->ping() ? std::move(client) : nullptr;
}

void ShardFleet::checkin(const std::string& id,
                         std::unique_ptr<Client> client) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Shard* shard = find_locked(id);
  if (shard != nullptr && shard->up) {
    shard->idle.push_back(std::move(client));
  }
}

std::optional<std::string> ShardFleet::route(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.owner(key);
}

std::vector<std::string> ShardFleet::shard_ids() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    ids.push_back(shard.config.id);
  }
  return ids;
}

ShardFleet::Shard* ShardFleet::find_locked(const std::string& id) {
  for (Shard& shard : shards_) {
    if (shard.config.id == id) {
      return &shard;
    }
  }
  return nullptr;
}

bool ShardFleet::mark_down(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Shard* shard = find_locked(id);
  if (shard == nullptr || !shard->up) {
    return false;
  }
  shard->up = false;
  shard->idle.clear();
  ring_.remove(id);
  ++counters_.rebalances;
  return true;
}

bool ShardFleet::mark_up(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Shard* shard = find_locked(id);
  if (shard == nullptr || shard->up) {
    return false;
  }
  shard->up = true;
  ring_.add(id);
  ++counters_.rebalances;
  return true;
}

std::size_t ShardFleet::up_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

void ShardFleet::note_request(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Shard* shard = find_locked(id)) {
    ++shard->requests;
  }
}

void ShardFleet::note_failure(const std::string& id) {
  const bool flipped = mark_down(id);
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.failovers += flipped ? 1 : 0;
  if (Shard* shard = find_locked(id)) {
    ++shard->failures;
  }
}

void ShardFleet::note_shed(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.sheds;
  if (Shard* shard = find_locked(id)) {
    ++shard->sheds;
  }
}

void ShardFleet::note_replays(std::size_t chains) {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.replays += chains;
}

ShardFleet::Stats ShardFleet::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

util::JsonValue ShardFleet::stats_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  util::JsonValue shards = util::JsonValue::array();
  for (const Shard& shard : shards_) {
    util::JsonValue entry = util::JsonValue::object();
    entry.set("id", shard.config.id);
    entry.set("host", shard.config.host);
    entry.set("port", shard.config.port);
    entry.set("state", shard.up ? "up" : "down");
    entry.set("requests", shard.requests);
    entry.set("failures", shard.failures);
    entry.set("sheds", shard.sheds);
    shards.push_back(std::move(entry));
  }
  util::JsonValue fleet = util::JsonValue::object();
  fleet.set("shards", std::move(shards));
  fleet.set("up", ring_.size());
  fleet.set("failovers", counters_.failovers);
  fleet.set("replays", counters_.replays);
  fleet.set("rebalances", counters_.rebalances);
  fleet.set("probes", counters_.probes);
  fleet.set("sheds", counters_.sheds);
  return fleet;
}

namespace {

/// Folds `addend` into `total`: numbers sum, objects merge key by key in
/// place (keys `total` lacks are carried over — version skew across the
/// fleet), anything else keeps the first value seen. Built for the
/// daemon's stats blocks, which are numeric counters all the way down.
void sum_json_counters(util::JsonValue& total, const util::JsonValue& addend) {
  if (total.is_number() && addend.is_number()) {
    total = total.as_double() + addend.as_double();
    return;
  }
  if (!total.is_object() || !addend.is_object()) {
    return;
  }
  for (const auto& [key, value] : addend.as_object()) {
    if (util::JsonValue* mine = total.find(key)) {
      sum_json_counters(*mine, value);
    } else {
      total.set(key, value);
    }
  }
}

}  // namespace

util::JsonValue ShardFleet::collect_shard_stats() {
  std::vector<std::string> up_ids;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Shard& shard : shards_) {
      if (shard.up) {
        up_ids.push_back(shard.config.id);
      }
    }
  }

  std::size_t reporting = 0;
  util::JsonValue merged = util::JsonValue::object();
  for (const std::string& id : up_ids) {
    // A shard that fails to answer is skipped, not marked down: stats
    // must not shoot the fleet.
    std::unique_ptr<Client> client = checkout(id);
    if (client == nullptr) {
      continue;
    }
    util::JsonValue answer;
    try {
      const Client::Response response =
          client->transact("{\"type\":\"stats\",\"id\":\"__fleet__\"}");
      if (!response.complete) {
        continue;
      }
      checkin(id, std::move(client));
      if (response.lines.size() != 1) {
        continue;
      }
      answer = util::JsonValue::parse(response.lines.front());
    } catch (const std::exception&) {
      continue;
    }
    if (!answer.is_object()) {
      continue;
    }
    ++reporting;
    sum_json_counters(merged, answer);
  }

  // Every block except the envelope (type/request) is counters —
  // service, cache, sim, engine and (for overload-controlled daemons)
  // transport.
  util::JsonValue aggregate = util::JsonValue::object();
  aggregate.set("reporting", reporting);
  for (const auto& [key, value] : merged.as_object()) {
    if (key != "type" && key != "request") {
      aggregate.set(key, value);
    }
  }
  return aggregate;
}

// ========================================================= RouterSession ==

RouterSession::RouterSession(
    ShardFleet& fleet, LineFn emit,
    std::shared_ptr<const std::atomic<bool>> cancelled)
    : LineSession(std::move(emit), std::move(cancelled)), fleet_(fleet) {}

// The router's stats surface is the FLEET, not a service/cache block:
// per-shard health and the failover counters, plus the fleet-wide sum of
// every Up shard's own counters and — when the router runs under
// NetServer — its own transport block.
std::string RouterSession::stats_answer(const std::string& id) {
  util::JsonValue stats = util::JsonValue::object();
  stats.set("type", "stats");
  stats.set("request", id);
  stats.set("fleet", fleet_.stats_json());
  stats.set("aggregate", fleet_.collect_shard_stats());
  util::JsonValue transport = transport_stats();
  if (!transport.is_null()) {
    stats.set("transport", std::move(transport));
  }
  return stats.dump();
}

void RouterSession::serve_scenario(service::ResolvedRequest& request) {
  // Simulate requests shard exactly like analytic ones — by grid chains
  // — and merge into a SimTable carrying the request's sim block:
  // per-cell RNG streams are content-addressed (sim_cell_seed), so a
  // shard computing one slice emits the same cell bytes a whole-grid
  // compute would.
  if (request.request.simulate) {
    route<service::SimTable>(request, request.request.sim);
  } else {
    route<core::SweepTable>(request, {});
  }
}

template <class Table>
void RouterSession::route(service::ResolvedRequest& request,
                          decltype(Table::header) header) {
  const std::string& id = request.request.id;
  Merge<Table> merge(request, std::move(header));
  merge.pending.resize(request.chains.size());
  std::iota(merge.pending.begin(), merge.pending.end(), std::size_t{0});

  const RouterOptions& options = fleet_.options();
  // Every non-overload round either finishes or removes at least one
  // shard from the ring, so shards + 2 such rounds bounds the loop even
  // with rejoins racing; overload rounds (busy shard, ring unchanged)
  // have their own budget on top.
  const int max_rounds = static_cast<int>(options.shards.size()) + 2;
  int round = 0;
  int overload_rounds = 0;
  while (!merge.pending.empty() && !merge.error) {
    if (cancelled()) {
      return;  // client is gone: stop dispatching on its behalf
    }
    if (++round > 1) {
      fleet_.note_replays(merge.pending.size());
    }
    merge.round_overload = false;
    // An exhausted round budget answers like an empty ring: a located
    // error, never a hang (a shard flapping up and down forever is
    // indistinguishable from one that is down).
    const std::optional<std::vector<ShardUnits>> work =
        round - overload_rounds > max_rounds
            ? std::nullopt
            : plan(fleet_, request.chains, merge.pending);
    if (!work) {
      fail(service::error_line(
          id, "shards",
          "no shard available: " + std::to_string(options.shards.size()) +
              " configured shard(s), " + std::to_string(fleet_.up_count()) +
              " up"));
      return;
    }
    merge.pending.clear();
    dispatch(fleet_, request, *work, merge);
    if (merge.round_overload && !merge.pending.empty() && !merge.error) {
      if (++overload_rounds > std::max(0, options.overload_rounds)) {
        // Budget spent waiting on busy shards: give up RETRIABLY — the
        // parent answer is the same "overloaded" error a single daemon
        // sheds with, so the client's own retry_after backoff takes over.
        fail(service::overloaded_line(
            id, merge.overload_hint_ms > 0 ? merge.overload_hint_ms : 1000));
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::clamp<std::int64_t>(merge.overload_hint_ms, 1,
                                   kOverloadWaitCapMs)));
    }
  }
  if (cancelled()) {
    return;
  }
  if (merge.error) {
    fail(service::error_line(id, merge.error->first, merge.error->second));
    return;
  }

  // Merge emits once: every cell in table order (the warm replay order),
  // then the done summary whose reuse flags are the AND over the
  // sub-responses. Asked for stats, the harvested per-shard blocks form
  // one {"shards": [...]} block in fleet configuration order (shards
  // that served no unit are absent).
  util::JsonValue stats;
  if (request.request.include_stats) {
    util::JsonValue shards = util::JsonValue::array();
    for (const std::string& shard_id : fleet_.shard_ids()) {
      const auto it = merge.shard_stats.find(shard_id);
      if (it != merge.shard_stats.end()) {
        util::JsonValue entry = util::JsonValue::object();
        entry.set("id", shard_id);
        entry.set("stats", it->second);
        shards.push_back(std::move(entry));
      }
    }
    stats = util::JsonValue::object();
    stats.set("shards", std::move(shards));
  }
  const util::JsonValue* stats_block = stats.is_null() ? nullptr : &stats;
  for (const auto& cell : merge.table.cells) {
    emit(service::cell_line(id, request.signature, cell), false);
  }
  emit(service::done_line(id, request.signature, merge.table,
                          merge.all_cache_hit, merge.all_joined, stats_block),
       true);
}

}  // namespace resilience::net
