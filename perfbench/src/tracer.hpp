#pragma once

// The traced run: replays a prefix of a workload's seeded request stream
// in process, calling each layer's public function inside its own span
// (LineFramer::feed, estimate_line_cost, ScenarioRequest::parse,
// signature_for, submit with its serializer calls, the done-line
// serializer, and RouterSession::handle_line over live shards). Spans go
// around public calls only; nothing inside the program is instrumented.
//
// Passes over the same prefix, each on a service of its own so each sees
// the same cache state:
//   traced  — the layered calls with spans recorded;
//   session — JsonlSession::handle_line on the same request, the time the
//             layer self times are reconciled against;
//   plain   — the layered calls with recording off (tracing overhead).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

struct TraceInput {
  Workload workload = Workload::kColdGrid;
  ServerPlan plan;
  std::size_t requests = 0;  ///< stream prefix replayed
  /// Live servers: the daemon a one-shard router probe goes through
  /// (daemon-direct workloads), or the router-warm shards.
  std::uint16_t daemon_port = 0;
  std::vector<std::uint16_t> shard_ports;
};

struct TraceResult {
  /// Per-layer metrics, named as in BENCHMARK.json (net.transport and the
  /// stats-derived ones are filled in by the caller).
  std::map<std::string, double> metrics;
  /// Mean self time per request of every layer on the request path, us.
  std::map<std::string, double> layer_us_per_req;
  double inprocess_p50_us = 0.0;   ///< request pass, per request
  double reconcile_ratio = 0.0;    ///< layer self times / handle_line time
  std::vector<Span> spans;         ///< the request pass, for the span file
};

[[nodiscard]] TraceResult traced_replay(const TraceInput& input,
                                        RequestStream& stream);

/// Writes spans as JSON lines (request, parent, layer, start_ns, end_ns).
bool write_spans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
