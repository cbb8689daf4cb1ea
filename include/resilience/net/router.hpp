#pragma once

// The sharded-fleet front end: sweep_router speaks the exact JSONL wire
// protocol of sweep_serverd, but instead of computing, it partitions
// each scenario request into its grid *chains* (the engine's independent
// scheduling unit: fixed platform + cost override + family, walking the
// node-count and rate-factor axes), routes every chain to a shard by
// consistent hashing over its ChainKey, sends the resulting sub-requests
// over kept shard connections from the request's own thread, and merges
// the streamed cells back into one response that is byte-identical to a
// single-process run.
//
// Why chain-level sharding preserves bytes: a chain's sub-grid resolves
// to bit-identical ScenarioPoints as the parent grid (the axes are the
// same cartesian product, just restricted to one platform/override/
// family), cell values are pure functions of (kind, resolved params,
// result-affecting options), warm_started is recomputed canonically from
// the chain's own schedule, and all JSON is canonical (serialize ->
// parse -> re-serialize is byte-identical) — so a shard's cell line can
// be re-emitted under the parent id/signature with the point index
// remapped and not a byte of payload changes. The router emits the
// merged cells in table order (the same order a warm cache-hit replay
// streams), then one done line whose cache_hit/joined_in_flight flags
// are the AND over the sub-responses.
//
// Data plane: the request's own thread checks out one kept connection
// per shard (ShardFleet::checkout), keeps one unit in flight on each and
// reads the answers as they arrive, so the shards compute in parallel
// with no thread per shard. A kept connection is reused only while
// Client::quiet() holds: a restarted shard gets a fresh connection.
//
// Robustness model (the paper's fail-stop assumption, applied to the
// serving fleet itself), one failure policy:
//   * health   — every shard is Up or Down. Down shards are excluded
//     from the ring. State changes come from {"type":"ping"} probes (a
//     background prober, plus probe_round() on demand) and from request
//     failures: any failed connect, send or read on a shard connection,
//     and any malformed answer (unparsable, short, signed for other
//     options, a cell outside its unit), closes that connection and
//     declares the shard Down. Only a shard's own error line (deadline,
//     engine failure) fails the request.
//   * failover — chains owned by a dead shard are re-routed through the
//     ring of survivors and replayed. Replays are at-least-once safe:
//     responses are deterministic, and shard-side caching / in-flight
//     dedupe absorb duplicate submissions without recompute.
//   * rejoin   — a probe answering pong puts the shard back on the ring;
//     ring positions depend only on shard identity, so the pre-failure
//     assignment is restored exactly (pinned by test_router).
//   * empty ring — a request that finds no live shard answers one
//     located {"type":"error"} line (field "shards") instead of hanging.
//
// Overload: a shard answering {"code":"overloaded"} is BUSY, not dead —
// it keeps its ring position and the unit's chains re-dispatch in the
// next round, after a retry_after_ms-guided wait of at most 250 ms (no
// failover, no replay storm onto the survivors, which are probably just
// as loaded). Only when the overload round budget is spent does the
// router give up, propagating the retriable overloaded error under the
// parent id so the CLIENT's backoff takes over.
//
// Simulate mode ("mode": "simulate") shards exactly like the analytic
// path — by grid chains — with the sim block travelling verbatim in
// every sub-request. Per-cell RNG streams are content-addressed
// (service::sim_cell_seed is a pure function of the request seed and
// the cell's resolved parameters, never of grid position), so a shard
// computing one slice emits the very cell bytes a whole-grid compute
// would, and the merged SimTable stream is byte-identical to a single
// daemon's — the identity tests/sim_smoke.sh pins over a 3-shard fleet.
//
// Observability: {"type":"stats"} answers a fleet block (per-shard
// state and counters plus per-shard shed counts, failovers, replays,
// rebalances, probes), an "aggregate" block folding every Up shard's
// own service/cache/transport counters into one fleet-wide sum (see
// collect_shard_stats), and — under NetServer — the router daemon's own
// "transport" scheduler block. A request's "stats": true flag fans out
// to the shards and the merged done line embeds the per-shard blocks as
// a {"shards": [{"id", "stats"}, ...]} stats block in fleet
// configuration order (the router has no service counters of its own);
// everything else matches the single-daemon bytes.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "resilience/net/client.hpp"
#include "resilience/net/hash_ring.hpp"
#include "resilience/service/line_session.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/util/json.hpp"

namespace resilience::net {

struct ShardConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Ring identity; defaults to "host:port". Stable ids are what make
  /// rejoin restore the original assignment.
  std::string id;
};

struct RouterOptions {
  std::vector<ShardConfig> shards;
  /// Bounds on each shard connection's connect and on each wait for the
  /// next bytes of a round's answers: busy shards that all stay silent
  /// this long are down (0 = the OS default / wait forever).
  int connect_timeout_ms = 2000;
  int receive_timeout_ms = 10000;
  /// Background health-probe period (ping every shard, Up and Down); 0
  /// disables the prober thread — tests and the bench drive
  /// probe_round() by hand.
  int probe_interval_ms = 0;
  /// Overload (admission-shed) answers are BACKPRESSURE, not death: the
  /// shard stays on the ring and its chains re-dispatch after a short
  /// wait. This bounds how many such overload rounds one request may
  /// burn (on top of the failover round budget) before the router gives
  /// up and propagates the shard's retriable "overloaded" error.
  int overload_rounds = 8;
};

/// Shared fleet state: shard configs, Up/Down health, the consistent-
/// hash ring of live shards, each shard's idle connections, and the
/// failover counters. Thread-safe — router sessions on executor threads
/// and the prober thread share one fleet.
class ShardFleet {
 public:
  explicit ShardFleet(RouterOptions options);
  ~ShardFleet();

  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  /// Starts the background prober (no-op when probe_interval_ms <= 0 or
  /// already started).
  void start_prober();
  /// One synchronous probe pass over every shard: pong -> Up (rejoin),
  /// failure -> Down.
  void probe_round();

  /// A connection to shard `id` for one caller: an idle one that is still
  /// quiet, else a fresh one that connected within connect_timeout_ms and
  /// answered a ping, else nullptr. Connects without the fleet lock.
  [[nodiscard]] std::unique_ptr<Client> checkout(const std::string& id);
  /// Returns a checked-out connection whose every answer was read to its
  /// terminal line. It is kept only while the shard is Up, so idle
  /// connections per shard are bounded by the requests routed at once.
  void checkin(const std::string& id, std::unique_ptr<Client> client);

  /// Ring owner of a 64-bit chain key; nullopt when no shard is Up.
  [[nodiscard]] std::optional<std::string> route(std::uint64_t key) const;
  [[nodiscard]] const RouterOptions& options() const noexcept {
    return options_;
  }
  /// Configured shard ids in configuration order (routing uses the ring;
  /// this is for deterministic iteration in stats and dispatch).
  [[nodiscard]] std::vector<std::string> shard_ids() const;

  /// Health transitions; each returns true when the state actually
  /// flipped (and the ring membership changed — a "rebalance").
  /// mark_down closes the shard's idle connections.
  bool mark_down(const std::string& id);
  bool mark_up(const std::string& id);
  [[nodiscard]] std::size_t up_count() const;

  /// Counter hooks for the router sessions.
  void note_request(const std::string& id);
  /// A failed connection or a malformed answer: counts the failure and
  /// marks the shard down, a failover when that flipped it.
  void note_failure(const std::string& id);
  /// A sub-request answered "overloaded" — backpressure charged to the
  /// shard's shed counter, never to its failure counter (the shard is
  /// healthy, just busy).
  void note_shed(const std::string& id);
  void note_replays(std::size_t chains);

  struct Stats {
    std::uint64_t failovers = 0;   ///< shard-death events that re-routed work
    std::uint64_t replays = 0;  ///< chains re-dispatched (failover/overload)
    std::uint64_t rebalances = 0;  ///< ring membership changes (down + rejoin)
    std::uint64_t probes = 0;      ///< pings sent by probe rounds
    std::uint64_t sheds = 0;       ///< sub-requests answered "overloaded"
  };
  [[nodiscard]] Stats stats() const;

  /// The {"type":"stats"} fleet block: per-shard state/counters plus the
  /// fleet-wide counters above.
  [[nodiscard]] util::JsonValue stats_json() const;

  /// Sends one {"type":"stats"} request to every Up shard and folds the
  /// answers into a single fleet-wide view: numeric fields summed block
  /// by block (service/cache/transport), "reporting" counting the shards
  /// that answered. A shard that fails to answer is skipped (and NOT
  /// marked down — observability must not shoot the fleet). Does network
  /// I/O; call it from request threads, never under the fleet lock.
  [[nodiscard]] util::JsonValue collect_shard_stats();

 private:
  struct Shard {
    ShardConfig config;
    bool up = true;
    std::uint64_t requests = 0;  ///< sub-requests answered
    std::uint64_t failures = 0;  ///< failed connections and bad answers
    std::uint64_t sheds = 0;     ///< "overloaded" answers (backpressure)
    std::vector<std::unique_ptr<Client>> idle;  ///< kept connections
  };

  [[nodiscard]] Shard* find_locked(const std::string& id);

  RouterOptions options_;
  mutable std::mutex mutex_;
  std::vector<Shard> shards_;
  HashRing ring_;
  Stats counters_;

  std::thread prober_;
  std::mutex prober_mutex_;
  std::condition_variable prober_cv_;
  bool prober_stop_ = false;
};

/// One JSONL protocol session over the fleet — the router's counterpart
/// of service::JsonlSession, pluggable into NetServer via its session
/// factory (and drivable directly in tests, no TCP front needed). The
/// request front is LineSession's, shared with JsonlSession, so every
/// answer that needs no shard is byte-identical to a single daemon's by
/// construction; this class answers stats from the fleet and serves
/// scenarios by routing their units to the shards on its own thread.
class RouterSession final : public service::LineSession {
 public:
  RouterSession(ShardFleet& fleet, LineFn emit,
                std::shared_ptr<const std::atomic<bool>> cancelled = nullptr);

 private:
  std::string stats_answer(const std::string& id) override;
  void serve_scenario(service::ResolvedRequest& request) override;
  /// Plan, dispatch and merge rounds until every chain merged or the
  /// request failed, then one emission in table order. `Table` is the
  /// mode's merged table (core::SweepTable or service::SimTable), and
  /// `header` its header.
  template <class Table>
  void route(service::ResolvedRequest& request,
             decltype(Table::header) header);

  ShardFleet& fleet_;
};

}  // namespace resilience::net
