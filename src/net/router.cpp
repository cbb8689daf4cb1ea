#include "resilience/net/router.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <thread>
#include <unordered_map>
#include <utility>

#include "resilience/net/client.hpp"
#include "resilience/net/resilient_client.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sim_table.hpp"

namespace resilience::net {

namespace {

std::string default_shard_id(const ShardConfig& config) {
  return config.host + ":" + std::to_string(config.port);
}

/// Index of `value` in a simulate axis, -1 when absent. Exact double
/// comparison is correct here: canonical JSON round-trips doubles
/// bit-exactly, so a shard's cell echoes the very axis values the
/// router's sub-request carried.
int axis_index(const std::vector<double>& axis, double value) {
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (axis[i] == value) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Where sub-response cells land in the merged table. A unit's sub-grid
/// keeps the parent's node and rate axes (and the simulate axes), so a
/// cell keeps its family and axis values and only its point index moves:
/// sub point s of unit (platform p, cost override c) is parent point
/// (p * chain_len + s) * costs_n + c. A cell's analytic slot is parent
/// point * families + family slot; a simulate cell's slot is that times
/// (shapes x ops), plus its (shape, ops) offset.
struct MergeLayout {
  std::size_t chain_len = 1;        ///< points per unit: nodes x rates
  std::size_t costs_n = 1;          ///< cost-override axis length
  std::size_t kinds_n = 1;          ///< families in the parent grid
  std::size_t cells_per_point = 1;  ///< shapes x ops; 1 for analytic
  std::array<int, core::kPatternKindCount> kind_slot{};  ///< -1 = absent
  const service::SimParams* sim = nullptr;  ///< the axes; null for analytic
};

MergeLayout merge_layout(const service::ScenarioRequest& request,
                         const std::vector<core::PatternKind>& kinds) {
  const core::ScenarioGrid& grid = request.grid;
  MergeLayout layout;
  layout.chain_len = std::max<std::size_t>(1, grid.node_counts.size()) *
                     std::max<std::size_t>(1, grid.rate_factors.size());
  layout.costs_n = std::max<std::size_t>(1, grid.cost_overrides.size());
  layout.kinds_n = kinds.size();
  layout.kind_slot.fill(-1);
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    layout.kind_slot[static_cast<std::size_t>(kinds[k])] = static_cast<int>(k);
  }
  if (request.simulate) {
    layout.cells_per_point =
        request.sim.weibull_shape.size() * request.sim.faulty_ops.size();
    layout.sim = &request.sim;
  }
  return layout;
}

/// (shape, ops) offset of a cell inside its (point, family) slot; -1 when
/// an echoed axis value is not on the parent's axes.
int axis_offset(const core::SweepCell&, const MergeLayout&) { return 0; }
int axis_offset(const service::SimCell& cell, const MergeLayout& layout) {
  const int shape = axis_index(layout.sim->weibull_shape, cell.weibull_shape);
  const int ops = axis_index(layout.sim->faulty_ops, cell.faulty_ops);
  return shape < 0 || ops < 0
             ? -1
             : shape * static_cast<int>(layout.sim->faulty_ops.size()) + ops;
}

/// The merge of one unit's sub-response into the parent table, both
/// modes: renumbers each cell's point and stores it in its slot. A
/// replayed unit simply overwrites identical content. False when a cell
/// lies outside the unit's sub-grid.
template <class Cell>
bool merge_unit_cells(std::vector<Cell>& cells, std::size_t platform_index,
                      std::size_t cost_index, const MergeLayout& layout,
                      std::vector<Cell>& merged,
                      std::vector<unsigned char>& filled) {
  for (Cell& cell : cells) {
    const int slot = layout.kind_slot[static_cast<std::size_t>(cell.kind)];
    const int offset = axis_offset(cell, layout);
    if (cell.point_index >= layout.chain_len || slot < 0 || offset < 0) {
      return false;
    }
    cell.point_index =
        (platform_index * layout.chain_len + cell.point_index) *
            layout.costs_n +
        cost_index;
    const std::size_t position =
        (cell.point_index * layout.kinds_n + static_cast<std::size_t>(slot)) *
            layout.cells_per_point +
        static_cast<std::size_t>(offset);
    merged[position] = cell;
    filled[position] = 1;
  }
  return true;
}

}  // namespace

// ============================================================ ShardFleet ==

ShardFleet::ShardFleet(RouterOptions options)
    : options_(std::move(options)), ring_(options_.ring_vnodes) {
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
  // the rejoin signal. Snapshot the configs first; the pings themselves
  // run without the fleet lock.
  std::vector<ShardConfig> configs;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    configs.reserve(shards_.size());
    for (const Shard& shard : shards_) {
      configs.push_back(shard.config);
    }
  }
  for (const ShardConfig& config : configs) {
    ResilientClientOptions probe_options;
    probe_options.host = config.host;
    probe_options.port = config.port;
    probe_options.connect_timeout_ms = options_.connect_timeout_ms;
    probe_options.receive_timeout_ms = options_.receive_timeout_ms;
    probe_options.max_attempts = 1;
    probe_options.backoff_initial_ms = 1;
    probe_options.backoff_max_ms = 1;
    probe_options.jitter_seed = options_.jitter_seed;
    ResilientClient prober(probe_options);
    const bool alive = prober.ping();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.probes;
    }
    if (alive) {
      mark_up(config.id);
    } else {
      mark_down(config.id);
    }
  }
}

std::optional<std::string> ShardFleet::route(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.owner(key);
}

std::optional<ShardConfig> ShardFleet::config(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Shard* shard = find_locked(id);
  return shard == nullptr ? std::nullopt
                          : std::optional<ShardConfig>(shard->config);
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

const ShardFleet::Shard* ShardFleet::find_locked(const std::string& id) const {
  for (const Shard& shard : shards_) {
    if (shard.config.id == id) {
      return &shard;
    }
  }
  return nullptr;
}

ShardFleet::Shard* ShardFleet::find_locked(const std::string& id) {
  return const_cast<Shard*>(
      static_cast<const ShardFleet*>(this)->find_locked(id));
}

bool ShardFleet::mark_down(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Shard* shard = find_locked(id);
  if (shard == nullptr || !shard->up) {
    return false;
  }
  shard->up = false;
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

bool ShardFleet::is_up(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Shard* shard = find_locked(id);
  return shard != nullptr && shard->up;
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
  const std::lock_guard<std::mutex> lock(mutex_);
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

void ShardFleet::note_failover() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.failovers;
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
  std::vector<ShardConfig> up_configs;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Shard& shard : shards_) {
      if (shard.up) {
        up_configs.push_back(shard.config);
      }
    }
  }

  std::size_t reporting = 0;
  util::JsonValue merged = util::JsonValue::object();
  for (const ShardConfig& config : up_configs) {
    ResilientClientOptions client_options;
    client_options.host = config.host;
    client_options.port = config.port;
    client_options.connect_timeout_ms = options_.connect_timeout_ms;
    client_options.receive_timeout_ms = options_.receive_timeout_ms;
    client_options.max_attempts = 1;  // a stats miss is not worth a retry
    client_options.probe_on_connect = false;
    ResilientClient client(client_options);
    Client::Response response;
    try {
      response = client.transact("{\"type\":\"stats\",\"id\":\"__fleet__\"}");
    } catch (const std::exception&) {
      continue;  // skipped, not marked down: stats must not shoot the fleet
    }
    if (!response.complete || response.lines.size() != 1) {
      continue;
    }
    util::JsonValue answer;
    try {
      answer = util::JsonValue::parse(response.lines.front());
    } catch (const util::JsonError&) {
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

void RouterSession::serve_scenario(service::ScenarioRequest& request) {
  const core::ScenarioGrid& grid = request.grid;
  // The shards run default sweep options, so signatures (request_signature
  // under default options) and chain keys (grid_chains with the request's
  // numeric_optimum applied) computed here match theirs.
  core::SweepOptions sweep;
  sweep.numeric_optimum = request.numeric_optimum;

  std::vector<core::ScenarioPoint> points = core::resolve_points(grid);
  const std::vector<core::PatternKind> kinds = grid.resolved_kinds();
  // Simulate requests shard exactly like analytic ones — by grid chains
  // — but identify and merge as a SimTable: per-cell RNG streams are
  // content-addressed (sim_cell_seed), so a shard computing one slice
  // emits the same cell bytes a whole-grid compute would.
  const core::GridSignature signature =
      service::request_signature(request, points, kinds, {});
  const std::vector<core::GridChain> chains = core::grid_chains(grid, sweep);

  // The merged result is assembled into a full parent table — an
  // analytic SweepTable or a SimTable spanning the two extra sim axes:
  // replayed cells after a failover simply overwrite identical content,
  // so at-least-once dispatch can never duplicate (or drop) a response
  // line. Emission happens once, at the end, in table order — the same
  // deterministic order a warm cache-hit replay streams.
  const MergeLayout layout = merge_layout(request, kinds);
  core::SweepTable table;
  service::SimTable sim_table;
  if (request.simulate) {
    sim_table.points = std::move(points);
    sim_table.kinds = kinds;
    sim_table.params = request.sim;
    sim_table.cells.assign(sim_table.cell_count(), service::SimCell{});
  } else {
    table.points = std::move(points);
    table.kinds = kinds;
    table.cells.assign(table.points.size() * kinds.size(), core::SweepCell{});
  }
  std::vector<unsigned char> filled(
      request.simulate ? sim_table.cells.size() : table.cells.size(), 0);

  // Work units: chains grouped by (owning shard, platform, cost
  // override) — one sub-request per unit, so a shard parallelizes the
  // unit's families across its own pool while the router parallelizes
  // across shards.
  struct Unit {
    std::size_t platform_index = 0;
    std::size_t cost_index = 0;
    std::vector<std::size_t> chain_indices;  ///< into `chains`
  };

  std::mutex merge_mutex;
  bool any_error = false;
  std::string error_field;
  std::string error_message;
  bool all_cache_hit = true;
  bool all_joined = true;
  /// Per-shard "stats" blocks harvested from sub-response done lines
  /// (only when the parent asked for stats). A shard's block is a
  /// service-GLOBAL snapshot, so the latest one seen wins — summing
  /// across units or replay rounds would double-count.
  std::unordered_map<std::string, util::JsonValue> shard_stats;
  bool round_overload = false;       ///< some unit was shed this round
  std::int64_t overload_hint_ms = 0; ///< largest retry_after_ms seen

  std::vector<std::size_t> pending(chains.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    pending[i] = i;
  }

  const RouterOptions& options = fleet_.options();
  // Every non-overload round either finishes or removes at least one
  // shard from the ring, so shards + 2 such rounds bounds the loop even
  // with rejoins racing; overload rounds (busy shard, ring unchanged)
  // have their own budget on top.
  const int max_rounds = static_cast<int>(options.shards.size()) + 2;
  const int max_overload_rounds = std::max(0, options.overload_rounds);
  int round = 0;
  int overload_rounds_used = 0;

  while (!pending.empty() && !any_error) {
    if (cancelled()) {
      return;  // client is gone: stop dispatching on its behalf
    }
    ++round;
    if (round > 1) {
      fleet_.note_replays(pending.size());
    }
    round_overload = false;

    // Route every pending chain through the current ring. An exhausted
    // round budget answers like an empty ring: a located error, never a
    // hang (a shard flapping up and down forever is indistinguishable
    // from one that is down).
    std::unordered_map<std::string, std::vector<std::size_t>> by_shard;
    for (const std::size_t chain_index : pending) {
      const std::optional<std::string> owner =
          round - overload_rounds_used > max_rounds
              ? std::optional<std::string>()
              : fleet_.route(chains[chain_index].key.value);
      if (!owner) {
        fail(service::error_line(
            request.id, "shards",
            "no shard available: " + std::to_string(options.shards.size()) +
                " configured shard(s), " + std::to_string(fleet_.up_count()) +
                " up"));
        return;
      }
      by_shard[*owner].push_back(chain_index);
    }
    pending.clear();

    // Deterministic shard order (configuration order) for the dispatch
    // round; within a shard, units in first-seen chain order.
    struct ShardWork {
      std::string shard;
      std::vector<Unit> units;
    };
    std::vector<ShardWork> work;
    for (const std::string& shard_id : fleet_.shard_ids()) {
      const auto it = by_shard.find(shard_id);
      if (it == by_shard.end()) {
        continue;
      }
      ShardWork shard_work;
      shard_work.shard = shard_id;
      for (const std::size_t chain_index : it->second) {
        const core::GridChain& chain = chains[chain_index];
        Unit* unit = nullptr;
        for (Unit& candidate : shard_work.units) {
          if (candidate.platform_index == chain.platform_index &&
              candidate.cost_index == chain.cost_index) {
            unit = &candidate;
            break;
          }
        }
        if (unit == nullptr) {
          shard_work.units.push_back(
              Unit{chain.platform_index, chain.cost_index, {}});
          unit = &shard_work.units.back();
        }
        unit->chain_indices.push_back(chain_index);
      }
      work.push_back(std::move(shard_work));
    }

    const auto run_shard = [&](const ShardWork& shard_work) {
      const std::optional<ShardConfig> config =
          fleet_.config(shard_work.shard);
      bool shard_dead = !config.has_value();
      std::vector<std::size_t> leftover;

      ResilientClientOptions client_options;
      if (config) {
        client_options.host = config->host;
        client_options.port = config->port;
      }
      client_options.connect_timeout_ms = options.connect_timeout_ms;
      client_options.receive_timeout_ms = options.receive_timeout_ms;
      client_options.max_attempts = std::max(1, options.attempts_per_shard);
      client_options.backoff_initial_ms = options.backoff_initial_ms;
      client_options.backoff_max_ms = options.backoff_max_ms;
      client_options.jitter_seed = options.jitter_seed;
      // A busy shard's retry_after_ms is honored, but capped low: the
      // router holds whole rounds of work while one client waits.
      client_options.retry_after_cap_ms =
          std::max(1, options.overload_backoff_cap_ms);
      ResilientClient client(client_options);

      for (const Unit& unit : shard_work.units) {
        if (shard_dead) {
          leftover.insert(leftover.end(), unit.chain_indices.begin(),
                          unit.chain_indices.end());
          continue;
        }

        // The unit's sub-request: the parent request with its grid
        // restricted to one platform and one cost override, families =
        // the unit's chains. Everything else travels verbatim: the
        // simulate mode and every sim field (budgets AND axes, all
        // result-affecting), the deadline, and the stats opt-in (the
        // merged done line carries the per-shard blocks as a "shards"
        // array).
        service::ScenarioRequest sub = request;
        sub.grid.platforms = {grid.platforms[unit.platform_index]};
        if (!grid.cost_overrides.empty()) {
          sub.grid.cost_overrides = {grid.cost_overrides[unit.cost_index]};
        }
        sub.grid.kinds.clear();
        for (const std::size_t chain_index : unit.chain_indices) {
          sub.grid.kinds.push_back(chains[chain_index].kind);
        }
        // Explicit id: resilient retries land on fresh connections where
        // default line numbering restarts. The id never reaches the
        // merged output (cells re-emit under the parent id).
        sub.id = request.id + "#" +
                 chains[unit.chain_indices.front()].key.hex();
        const std::string sub_line = sub.to_json().dump();
        // What the shard must answer with — a mismatch means the shard
        // runs different result-affecting options than the router
        // assumes, and wrong bytes must fail loudly, not merge quietly.
        const core::GridSignature sub_signature = service::request_signature(
            sub, core::resolve_points(sub.grid), sub.grid.resolved_kinds(),
            {});

        Client::Response response;
        try {
          response = client.transact(sub_line);
        } catch (const std::exception&) {
          fleet_.note_failure(shard_work.shard);
          shard_dead = true;
          leftover.insert(leftover.end(), unit.chain_indices.begin(),
                          unit.chain_indices.end());
          continue;
        }

        // Backpressure, not death: an admission-shed answer means the
        // shard is healthy but full. It keeps its ring positions (no
        // failover — the survivors are probably just as loaded) and the
        // unit's chains go back to pending for a later overload round.
        std::int64_t shed_hint_ms = 0;
        if (is_overloaded_response(response, &shed_hint_ms)) {
          fleet_.note_shed(shard_work.shard);
          const std::lock_guard<std::mutex> lock(merge_mutex);
          round_overload = true;
          overload_hint_ms = std::max(overload_hint_ms, shed_hint_ms);
          pending.insert(pending.end(), unit.chain_indices.begin(),
                         unit.chain_indices.end());
          continue;
        }
        fleet_.note_request(shard_work.shard);

        // Parse the sub-response: cells to remap, one terminal line.
        bool done_seen = false;
        bool malformed = false;
        bool unit_error = false;
        std::string unit_error_field;
        std::string unit_error_message;
        bool unit_cache_hit = false;
        bool unit_joined = false;
        bool unit_has_stats = false;
        util::JsonValue unit_stats;
        std::vector<core::SweepCell> cells;
        std::vector<service::SimCell> sim_cells;
        try {
          for (const std::string& response_line : response.lines) {
            const util::JsonValue response_json =
                util::JsonValue::parse(response_line);
            const util::JsonValue* type = response_json.find("type");
            const std::string type_name =
                type != nullptr && type->is_string() ? type->as_string() : "";
            if (type_name == "cell") {
              const util::JsonValue* cell_signature =
                  response_json.find("signature");
              if (cell_signature == nullptr ||
                  cell_signature->as_string() != sub_signature.hex()) {
                malformed = true;
                break;
              }
              if (request.simulate) {
                sim_cells.push_back(
                    service::sim_cell_from_json(response_json));
              } else {
                cells.push_back(service::cell_from_json(response_json));
              }
            } else if (type_name == "done") {
              const util::JsonValue* done_signature =
                  response_json.find("signature");
              if (done_signature == nullptr ||
                  done_signature->as_string() != sub_signature.hex()) {
                malformed = true;
                break;
              }
              unit_cache_hit = response_json.find("cache_hit") != nullptr &&
                               response_json.find("cache_hit")->as_bool();
              unit_joined =
                  response_json.find("joined_in_flight") != nullptr &&
                  response_json.find("joined_in_flight")->as_bool();
              if (const util::JsonValue* stats_field =
                      response_json.find("stats")) {
                unit_stats = *stats_field;
                unit_has_stats = true;
              }
              done_seen = true;
            } else if (type_name == "error") {
              const util::JsonValue* field = response_json.find("field");
              const util::JsonValue* message = response_json.find("message");
              unit_error = true;
              unit_error_field =
                  field != nullptr && field->is_string() ? field->as_string()
                                                         : "";
              unit_error_message = message != nullptr && message->is_string()
                                       ? message->as_string()
                                       : "shard error";
            } else {
              malformed = true;
              break;
            }
          }
        } catch (const std::exception&) {
          malformed = true;
        }

        const std::lock_guard<std::mutex> lock(merge_mutex);
        if (unit_has_stats) {
          shard_stats[shard_work.shard] = std::move(unit_stats);
        }
        if (unit_error) {
          // A protocol-level answer (deadline expiry, shard-side engine
          // failure): the parent request fails with the shard's own
          // field/message — exactly the line a single daemon would have
          // answered, re-tagged with the parent id.
          if (!any_error) {
            any_error = true;
            error_field = unit_error_field;
            error_message = unit_error_message;
          }
          continue;
        }
        const std::size_t unit_cells =
            request.simulate ? sim_cells.size() : cells.size();
        if (malformed || !done_seen ||
            unit_cells != layout.chain_len * layout.cells_per_point *
                              unit.chain_indices.size()) {
          if (!any_error) {
            any_error = true;
            error_field = "";
            error_message = "internal error: shard " + shard_work.shard +
                            " returned an invalid response for " + sub.id;
          }
          continue;
        }
        const bool in_grid =
            request.simulate
                ? merge_unit_cells(sim_cells, unit.platform_index,
                                   unit.cost_index, layout, sim_table.cells,
                                   filled)
                : merge_unit_cells(cells, unit.platform_index,
                                   unit.cost_index, layout, table.cells,
                                   filled);
        if (!in_grid && !any_error) {
          any_error = true;
          error_field = "";
          error_message = "internal error: shard " + shard_work.shard +
                          " returned an out-of-grid cell for " + sub.id;
        }
        all_cache_hit = all_cache_hit && unit_cache_hit;
        all_joined = all_joined && unit_joined;
      }

      if (shard_dead) {
        if (fleet_.mark_down(shard_work.shard)) {
          fleet_.note_failover();
        }
        const std::lock_guard<std::mutex> lock(merge_mutex);
        pending.insert(pending.end(), leftover.begin(), leftover.end());
      }
    };

    if (work.size() == 1) {
      run_shard(work.front());  // no thread spawn on the single-shard path
    } else {
      std::vector<std::thread> threads;
      threads.reserve(work.size());
      for (const ShardWork& shard_work : work) {
        threads.emplace_back([&run_shard, &shard_work] {
          run_shard(shard_work);
        });
      }
      for (std::thread& thread : threads) {
        thread.join();
      }
    }

    if (round_overload && !pending.empty() && !any_error) {
      ++overload_rounds_used;
      if (overload_rounds_used > max_overload_rounds) {
        // Budget spent waiting on busy shards: give up RETRIABLY — the
        // parent answer is the same "overloaded" error a single daemon
        // sheds with, so the client's own retry_after backoff takes over.
        fail(service::overloaded_line(
            request.id, overload_hint_ms > 0 ? overload_hint_ms : 1000));
        return;
      }
      const std::int64_t wait = std::min<std::int64_t>(
          std::max<std::int64_t>(overload_hint_ms, 1),
          std::max(1, options.overload_backoff_cap_ms));
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    }
  }

  if (cancelled()) {
    return;
  }
  if (any_error) {
    fail(service::error_line(request.id, error_field, error_message));
    return;
  }
  for (const unsigned char was_filled : filled) {
    if (was_filled == 0) {
      fail(service::error_line(request.id, "",
                               "internal error: merged response is missing "
                               "cells"));
      return;
    }
  }

  // The merged stream: every cell in table order (the warm replay
  // order), then the done summary whose reuse flags are the AND over
  // the sub-responses. When the parent asked for stats, the harvested
  // per-shard blocks merge into one {"shards": [...]} stats block in
  // fleet configuration order (shards that served no unit are absent).
  util::JsonValue stats_block;
  if (request.include_stats) {
    util::JsonValue shard_array = util::JsonValue::array();
    for (const std::string& shard_id : fleet_.shard_ids()) {
      const auto it = shard_stats.find(shard_id);
      if (it == shard_stats.end()) {
        continue;
      }
      util::JsonValue entry = util::JsonValue::object();
      entry.set("id", shard_id);
      entry.set("stats", it->second);
      shard_array.push_back(std::move(entry));
    }
    stats_block = util::JsonValue::object();
    stats_block.set("shards", std::move(shard_array));
  }

  const util::JsonValue* stats = request.include_stats ? &stats_block : nullptr;
  if (request.simulate) {
    for (const service::SimCell& cell : sim_table.cells) {
      emit(service::cell_line(request.id, signature, cell), false);
    }
    emit(service::done_line(request.id, signature, sim_table, all_cache_hit,
                            stats),
         true);
    return;
  }
  for (const core::SweepCell& cell : table.cells) {
    emit(service::cell_line(request.id, signature, cell), false);
  }
  emit(service::done_line(request.id, signature, table, all_cache_hit,
                          all_joined, stats),
       true);
}

}  // namespace resilience::net
