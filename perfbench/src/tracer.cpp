#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <memory>

#include "resilience/net/framing.hpp"
#include "resilience/net/router.hpp"
#include "resilience/service/cost_model.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sim_service.hpp"
#include "resilience/service/sweep_service.hpp"
#include "resilience/util/json.hpp"
#include "resilience/util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace rc = resilience::core;
namespace rn = resilience::net;
namespace rs = resilience::service;

struct Counters {
  std::uint64_t cells_computed = 0;
  std::uint64_t runs = 0;
  std::uint64_t bytes = 0;
};

class SpanSink final : public rc::CellSink {
 public:
  SpanSink(Tracer& tracer, std::uint32_t request, int parent,
           const std::string& id, rc::GridSignature signature,
           Counters& counters)
      : tracer_(tracer),
        request_(request),
        parent_(parent),
        id_(id),
        signature_(signature),
        counters_(counters) {}

  void on_cell(const rc::SweepCell& cell) override {
    Scope span(tracer_, request_, parent_, "service.serialize");
    counters_.bytes += rs::cell_line(id_, signature_, cell).size() + 1;
  }

 private:
  Tracer& tracer_;
  std::uint32_t request_;
  int parent_;
  const std::string& id_;
  rc::GridSignature signature_;
  Counters& counters_;
};

/// One request through the daemon's layers, one span per public call.
/// Returns the request's wall time in ns (measured with recording off too).
std::int64_t layered(Tracer& tracer, std::uint32_t id, rs::SweepService& service,
                     rn::LineFramer& framer, const std::string& wire,
                     Counters& counters) {
  const std::int64_t start = now_ns();
  {
    Scope root(tracer, id, -1, "request");
    const int parent = root.index();
    std::string line;
    {
      Scope span(tracer, id, parent, "net.framing");
      framer.feed(wire, [&line](std::string_view framed) { line.assign(framed); });
    }
    {
      Scope span(tracer, id, parent, "service.admit");
      (void)rs::estimate_line_cost(line, &service, 0);
    }
    rs::ScenarioRequest request;
    {
      Scope span(tracer, id, parent, "service.parse");
      request = rs::ScenarioRequest::parse(line);
    }
    rc::GridSignature signature;
    {
      Scope span(tracer, id, parent, "core.signature");
      signature = request.simulate ? service.sim().signature_for(request)
                                   : service.signature_for(request);
    }
    const int submit = tracer.begin(id, parent, "service.submit");
    std::string done;
    if (request.simulate) {
      const rs::SimCellFn sink = [&](const rs::SimCell& cell) {
        Scope span(tracer, id, submit, "service.serialize");
        counters.bytes += rs::sim_cell_line(request.id, signature, cell).size() + 1;
      };
      const rs::SimSubmitResult result = service.sim().submit(request, sink);
      tracer.end(submit);
      tracer.relabel(submit, result.cache_hit ? "service.cache" : "sim.engine");
      if (!result.cache_hit) {
        for (const rs::SimCell& cell : result.table->cells) {
          counters.runs += cell.runs;
        }
      }
      Scope span(tracer, id, parent, "service.serialize");
      done = rs::sim_done_line(request.id, result.signature, *result.table,
                               result.cache_hit);
    } else {
      SpanSink sink(tracer, id, submit, request.id, signature, counters);
      const rs::SubmitResult result = service.submit(request, &sink);
      tracer.end(submit);
      tracer.relabel(submit, result.cache_hit ? "service.cache" : "core.engine");
      if (!result.cache_hit) {
        counters.cells_computed += result.table->cells.size();
      }
      Scope span(tracer, id, parent, "service.serialize");
      done = rs::done_line(request.id, result.signature, *result.table,
                           result.cache_hit, result.joined_in_flight);
    }
    counters.bytes += done.size() + 1;
  }
  return now_ns() - start;
}

/// One request through the router daemon's layers: framing, admission
/// (against the router's cache-less service), RouterSession::handle_line.
std::int64_t routed(Tracer& tracer, std::uint32_t id, rn::RouterSession& router,
                    rs::SweepService& admit_service, rn::LineFramer& framer,
                    const std::string& wire) {
  const std::int64_t start = now_ns();
  {
    Scope root(tracer, id, -1, "request");
    std::string line;
    {
      Scope span(tracer, id, root.index(), "net.framing");
      framer.feed(wire, [&line](std::string_view framed) { line.assign(framed); });
    }
    {
      Scope span(tracer, id, root.index(), "service.admit");
      (void)rs::estimate_line_cost(line, &admit_service, 0);
    }
    Scope span(tracer, id, root.index(), "net.router");
    router.handle_line(line);
  }
  return now_ns() - start;
}

double per_call_us(const std::map<std::string, LayerTime>& times,
                   const std::string& layer) {
  const auto it = times.find(layer);
  return it == times.end() || it->second.calls == 0
             ? 0.0
             : it->second.self_ns / 1e3 / static_cast<double>(it->second.calls);
}

double self_s(const std::map<std::string, LayerTime>& times,
              const std::string& layer) {
  const auto it = times.find(layer);
  return it == times.end() ? 0.0 : it->second.self_ns / 1e9;
}

double rate(double work, double seconds) {
  return seconds > 0.0 ? work / seconds : 0.0;
}

double fleet_subrequests(const rn::ShardFleet& fleet) {
  double total = 0.0;
  const resilience::util::JsonValue stats = fleet.stats_json();
  for (const auto& shard : stats.find("shards")->as_array()) {
    total += shard.find("requests")->as_double();
  }
  return total;
}

}  // namespace

TraceResult traced_replay(const TraceInput& input, RequestStream& stream) {
  const std::size_t n = input.requests;
  const bool via_router = input.workload == Workload::kRouterWarm;
  resilience::util::ThreadPool pool(static_cast<std::size_t>(input.plan.threads));
  rs::ServiceOptions options;
  options.sweep.pool = &pool;
  options.cache_capacity =
      std::max<std::size_t>(static_cast<std::size_t>(input.plan.cache_capacity),
                            n + stream.working_set().size());
  rs::SweepService traced(options);
  rs::SweepService session_service(options);
  rs::SweepService plain(options);
  rs::ServiceOptions no_cache;
  no_cache.cache_capacity = 0;
  rs::SweepService router_admit(no_cache);  // what sweep_router prices with

  rs::JsonlSession session(session_service, [](std::string&&, bool) {});
  rn::LineFramer framer_traced;
  rn::LineFramer framer_plain;

  // The working set, filled on every service; the fill is where the
  // engine runs on the warm workloads.
  Tracer fill_tracer(true);
  Counters fill;
  std::uint32_t fill_id = 0;
  for (const std::string& line : stream.working_set()) {
    (void)layered(fill_tracer, fill_id++, traced, framer_traced, line + "\n", fill);
    session.handle_line(line);
    rs::JsonlSession(plain, [](std::string&&, bool) {}).handle_line(line);
  }

  rn::RouterOptions router_options;
  router_options.probe_interval_ms = 0;
  if (via_router) {
    for (std::uint16_t port : input.shard_ports) {
      router_options.shards.push_back({"127.0.0.1", port, ""});
    }
  } else {
    router_options.shards.push_back({"127.0.0.1", input.daemon_port, ""});
  }
  rn::ShardFleet fleet(router_options);
  rn::RouterSession router(fleet, [](std::string&&, bool) {});

  // Request pass. Router-warm's request is the routed one; its layered
  // pass still runs, on a service holding the shards' content, to give
  // the per-layer costs one shard pays.
  Tracer tracer(true);
  Tracer layer_tracer(true);
  Counters counters;
  std::vector<double> request_us;
  std::vector<double> session_us;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& line = stream.line(i);
    const std::string wire = line + "\n";
    const auto id = static_cast<std::uint32_t>(i);
    if (via_router) {
      request_us.push_back(
          static_cast<double>(
              routed(tracer, id, router, router_admit, framer_plain, wire)) /
          1e3);
      (void)layered(layer_tracer, id, traced, framer_traced, wire, counters);
    } else {
      request_us.push_back(static_cast<double>(layered(tracer, id, traced,
                                                       framer_traced, wire,
                                                       counters)) /
                           1e3);
    }
    const std::int64_t start = now_ns();
    session.handle_line(line);
    session_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }

  // Plain pass: the same calls with recording off.
  Tracer off(false);
  Counters plain_counters;
  double plain_ns = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string wire = stream.line(i) + "\n";
    const auto id = static_cast<std::uint32_t>(i);
    plain_ns += static_cast<double>(
        via_router ? routed(off, id, router, router_admit, framer_plain, wire)
                   : layered(off, id, plain, framer_plain, wire, plain_counters));
  }

  // Identity hits: the warm workloads' own requests; on the cold ones, a
  // re-submit of the start of the replayed prefix.
  Tracer hit_tracer(true);
  const std::size_t probe = std::min<std::size_t>(
      n, input.workload == Workload::kSimCampaign ? 8 : 32);
  if (stream.working_set().empty()) {
    Counters hits;
    for (std::size_t i = 0; i < probe; ++i) {
      (void)layered(hit_tracer, static_cast<std::uint32_t>(i), traced,
                    framer_traced, stream.line(i) + "\n", hits);
    }
  }

  // Router overhead: RouterSession::handle_line minus JsonlSession::
  // handle_line on the same request. Daemon-direct workloads route a
  // probe through a one-shard fleet over their own daemon (first pass
  // untimed, so the daemon answers the timed pass from cache).
  std::vector<double> overhead_us;
  double subrequests = 0.0;
  if (via_router) {
    for (std::size_t i = 0; i < n; ++i) {
      overhead_us.push_back(request_us[i] - session_us[i]);
    }
  } else {
    for (std::size_t i = 0; i < probe; ++i) {
      router.handle_line(stream.line(i));
    }
    const double before = fleet_subrequests(fleet);
    for (std::size_t i = 0; i < probe; ++i) {
      const std::string& line = stream.line(i);
      std::int64_t start = now_ns();
      router.handle_line(line);
      const std::int64_t routed_ns = now_ns() - start;
      start = now_ns();
      session.handle_line(line);
      overhead_us.push_back(static_cast<double>(routed_ns - (now_ns() - start)) /
                            1e3);
    }
    subrequests = probe == 0 ? 0.0
                             : (fleet_subrequests(fleet) - before) /
                                   static_cast<double>(probe);
  }

  const auto times = self_times(tracer.spans());
  const auto layers = via_router ? self_times(layer_tracer.spans()) : times;
  const auto fills = self_times(fill_tracer.spans());
  const auto hit_times =
      stream.working_set().empty() ? self_times(hit_tracer.spans()) : layers;

  TraceResult out;
  auto& m = out.metrics;
  m["net.framing.us_per_line"] = per_call_us(times, "net.framing");
  m["service.admit.us_per_req"] = per_call_us(times, "service.admit");
  m["service.parse.us_per_req"] = per_call_us(layers, "service.parse");
  m["core.signature.us_per_req"] = per_call_us(layers, "core.signature");
  m["service.cache.us_per_hit"] = per_call_us(hit_times, "service.cache");
  const bool engine_in_stream = counters.cells_computed > 0;
  m["core.engine.cells_per_s"] =
      engine_in_stream
          ? rate(static_cast<double>(counters.cells_computed),
                 self_s(layers, "core.engine"))
          : rate(static_cast<double>(fill.cells_computed), self_s(fills, "core.engine"));
  m["core.engine.cells"] = static_cast<double>(counters.cells_computed);
  m["sim.engine.runs_per_s"] =
      rate(static_cast<double>(counters.runs), self_s(layers, "sim.engine"));
  m["sim.engine.runs"] = static_cast<double>(counters.runs);
  m["service.serialize.us_per_line"] = per_call_us(layers, "service.serialize");
  m["service.serialize.bytes_per_req"] =
      n == 0 ? 0.0 : static_cast<double>(counters.bytes) / static_cast<double>(n);
  double mean_overhead = 0.0;
  for (double value : overhead_us) {
    mean_overhead += value / static_cast<double>(overhead_us.size());
  }
  m["net.router.overhead_us_per_req"] = mean_overhead;
  if (!via_router) {
    m["net.router.subrequests_per_req"] = subrequests;
  }
  double traced_ns = 0.0;
  for (double us : request_us) {
    traced_ns += us * 1e3;
  }
  m["trace.overhead_ratio"] = plain_ns > 0.0 ? traced_ns / plain_ns - 1.0 : 0.0;
  const auto root = times.find("request");
  m["trace.unattributed_ratio"] =
      traced_ns > 0.0 && root != times.end() ? root->second.self_ns / traced_ns
                                             : 0.0;

  // Where a request's in-process time goes, per layer and per request.
  const double per_request = n == 0 ? 1.0 : static_cast<double>(n);
  for (const auto& [layer, time] : times) {
    if (layer != "request") {
      out.layer_us_per_req[layer] = time.self_ns / 1e3 / per_request;
    }
  }
  double layered_us = 0.0;
  for (const char* layer : {"service.parse", "core.signature", "service.cache",
                            "core.engine", "sim.engine", "service.serialize"}) {
    const auto it = layers.find(layer);
    layered_us += it == layers.end() ? 0.0 : it->second.self_ns / 1e3;
  }
  double session_total = 0.0;
  for (double us : session_us) {
    session_total += us;
  }
  out.reconcile_ratio = session_total > 0.0 ? layered_us / session_total : 0.0;
  out.inprocess_p50_us = percentile(request_us, 0.5);
  out.spans = tracer.spans();
  return out;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& span : spans) {
    out << "{\"request\":" << span.request << ",\"parent\":" << span.parent
        << ",\"layer\":\"" << span.layer << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
