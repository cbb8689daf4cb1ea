// perfbench_load: one benchmark run of one workload (see README.md).
//
//   perfbench_load --workload NAME --seed N --seconds S --trace 0|1
//                  --run-dir DIR
//
// Starts the workload's servers with explicit flags (setting up several
// times and keeping the last fleet), drives the measured phases from one
// generator thread, checks every response, and prints diagnostics lines
// followed by one JSON result line: the end-to-end metrics with --trace 0,
// the per-layer metrics (from a traced in-process replay of the same
// stream plus the servers' stats counters) with --trace 1. Exits 2 on bad
// arguments and 1 when the servers cannot be started or measured.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "loadgen.hpp"
#include "metrics.hpp"
#include "procs.hpp"
#include "resilience/util/json.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace pb = perfbench;
using resilience::util::JsonValue;

namespace {

constexpr int kSetups = 7;        ///< set-ups per run; setup_s is their median
constexpr int kStallMs = 10000;   ///< observed silence that fails a request
constexpr std::size_t kMaxSamples = 32;
/// Diagnostic throughputs and latency medians are medians over up to 20
/// windows of the timed phase, each holding at least 50 completions.
std::size_t windows_for(std::size_t completions) {
  return std::clamp<std::size_t>(completions / 50, 1, 20);
}
/// Warm workloads split --seconds: saturation, serial, then open loop.
constexpr double kSaturationShare = 0.4;
constexpr double kSerialShare = 0.4;
/// CPU readings during the timed phases, one window per period.
constexpr int kWindowMs = 500;

/// Host and server CPU clocks at a phase boundary.
struct Mark {
  pb::CpuTimes cpu;
  double server_cpu_s = 0.0;
  std::int64_t t_ns = pb::now_ns();
};

/// Share of the CPU time wanted between two marks that the hypervisor
/// gave to other tenants.
double steal_share(const Mark& from, const Mark& to) {
  const auto steal = static_cast<double>(to.cpu.steal - from.cpu.steal);
  const auto ran = static_cast<double>(to.cpu.busy - from.cpu.busy);
  return steal + ran > 0.0 ? steal / (steal + ran) : 0.0;
}

/// The quieter half of the sampled windows inside a phase; a phase too
/// short to hold one window is one window of its own.
std::vector<pb::Window> quiet_windows(const std::vector<pb::Window>& windows,
                                      const Mark& from, const Mark& to) {
  std::vector<pb::Window> quiet = pb::quieter_half(windows, from.t_ns, to.t_ns);
  if (quiet.empty()) {
    quiet.push_back(pb::Window{from.t_ns, to.t_ns, steal_share(from, to),
                               to.server_cpu_s - from.server_cpu_s});
  }
  return quiet;
}

/// The correct responses of `phase`, timed on the now_ns() clock from
/// their (intended) send.
std::vector<pb::Completion> completions(const pb::PhaseResult& phase) {
  std::vector<pb::Completion> out;
  for (std::size_t i = 0; i < phase.done_s.size(); ++i) {
    const std::int64_t done =
        phase.start_ns + static_cast<std::int64_t>(phase.done_s[i] * 1e9);
    out.push_back(pb::Completion{
        done - static_cast<std::int64_t>(phase.latency_ms[i] * 1e6), done,
        phase.done_cells[i]});
  }
  return out;
}

double mean_steal(const std::vector<pb::Window>& windows) {
  double total = 0.0;
  for (const pb::Window& window : windows) {
    total += window.steal_share;
  }
  return windows.empty() ? 0.0 : total / static_cast<double>(windows.size());
}

struct Args {
  pb::Workload workload = pb::Workload::kColdGrid;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string run_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  std::map<std::string, std::string> values;
  for (int i = 1; i + 1 < argc; i += 2) {
    values[argv[i]] = argv[i + 1];
  }
  if (argc % 2 != 1 || values.size() != 5) {
    return false;
  }
  const auto workload = pb::parse_workload(values["--workload"]);
  char* end = nullptr;
  args.seed = std::strtoull(values["--seed"].c_str(), &end, 10);
  const bool seed_ok = end != nullptr && *end == '\0' && !values["--seed"].empty();
  args.seconds = std::strtod(values["--seconds"].c_str(), &end);
  const bool seconds_ok = *end == '\0' && args.seconds > 0.0 && args.seconds <= 600.0;
  const std::string& trace = values["--trace"];
  args.run_dir = values["--run-dir"];
  if (!workload || !seed_ok || !seconds_ok || (trace != "0" && trace != "1") ||
      args.run_dir.empty()) {
    return false;
  }
  args.workload = *workload;
  args.trace = trace == "1";
  return true;
}

double median(std::vector<double> values) { return pb::percentile(values, 0.5); }

/// The last `count` lines of the file at `path`, each '\n'-terminated.
std::string log_tail(const std::string& path, std::size_t count) {
  std::ifstream in(path);
  std::deque<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line + "\n");
    if (lines.size() > count) {
      lines.pop_front();
    }
  }
  std::string tail;
  for (const std::string& line : lines) {
    tail += line;
  }
  return tail;
}

/// Number at `path` below `root`, 0 when any step is missing.
double at(const JsonValue* root, std::initializer_list<std::string_view> path) {
  for (std::string_view key : path) {
    if (root == nullptr) {
      return 0.0;
    }
    root = root->find(key);
  }
  return root != nullptr && root->is_number() ? root->as_double() : 0.0;
}

/// The server counters the per-layer metrics read, as a stats snapshot.
struct Counters {
  std::map<std::string, double> values;
  double operator[](const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? 0.0 : it->second;
  }
};

std::optional<JsonValue> stats_answer(std::uint16_t port, std::string* error) {
  const auto answer =
      pb::transact(port, {R"({"type":"stats","id":"perfbench"})"}, kStallMs, error);
  if (answer.size() != 1) {
    return std::nullopt;
  }
  // sweep_router's "aggregate" block repeats its keys, which a strict
  // parser rejects; the shards are asked directly instead.
  std::string text = answer[0];
  const std::size_t aggregate = text.find(",\"aggregate\":{");
  if (aggregate != std::string::npos) {
    std::size_t end = text.find('{', aggregate);
    for (int depth = 0; end < text.size(); ++end) {
      depth += text[end] == '{' ? 1 : text[end] == '}' ? -1 : 0;
      if (depth == 0) {
        break;
      }
    }
    text.erase(aggregate, end + 1 - aggregate);
  }
  try {
    return JsonValue::parse(text);
  } catch (const std::exception& parse_error) {
    *error = std::string("stats answer: ") + parse_error.what();
    return std::nullopt;
  }
}

/// Counters of the front process (transport, fleet) and, summed over the
/// processes that serve requests, of the service and its cache.
bool read_counters(const pb::Fleet& fleet, Counters& out, std::string* error) {
  const auto front = stats_answer(fleet.port, error);
  if (!front) {
    return false;
  }
  const JsonValue* latency = front->find("transport");
  for (const char* histogram : {"queue_wait", "compute", "write"}) {
    out.values[std::string(histogram) + ".count"] =
        at(latency, {"latency_us", histogram, "count"});
    out.values[std::string(histogram) + ".total_us"] =
        at(latency, {"latency_us", histogram, "total_us"});
  }
  if (const JsonValue* shards = front->find("fleet")) {
    double requests = 0.0;
    for (const JsonValue& shard : shards->find("shards")->as_array()) {
      requests += at(&shard, {"requests"});
    }
    out.values["fleet.requests"] = requests;
    out.values["fleet.replays"] = at(shards, {"replays"});
  }
  std::vector<JsonValue> servers;
  if (fleet.shard_ports.empty()) {
    servers.push_back(*front);
  }
  for (std::uint16_t port : fleet.shard_ports) {
    auto shard = stats_answer(port, error);
    if (!shard) {
      return false;
    }
    servers.push_back(std::move(*shard));
  }
  for (const JsonValue& server : servers) {
    out.values["tables_computed"] += at(&server, {"service", "tables_computed"});
    out.values["cache.hits"] += at(&server, {"cache", "hits"});
    out.values["cache.misses"] += at(&server, {"cache", "misses"});
    out.values["sim.cells"] += at(&server, {"sim", "cells"});
    out.values["sim.early_stops"] += at(&server, {"sim", "early_stops"});
  }
  return true;
}

/// Splits transact() output into responses (each ending in a terminal line).
std::vector<std::string> responses(const std::vector<std::string>& lines);

/// Sends the set-up batch (the working set, or the cold workloads' warm-up
/// requests) through `fleet` and checks that every entry answered.
bool fill(const pb::Fleet& fleet, const std::vector<std::string>& set,
          std::string* error) {
  const auto filled = responses(pb::transact(fleet.port, set, 60000, error));
  if (filled.size() != set.size()) {
    *error = "working-set fill failed: " + *error;
    return false;
  }
  for (const std::string& answer : filled) {
    // Sub-grids can recur across set entries on a shard, so a fill
    // answer may already be a hit.
    const std::string why = pb::check_shape(answer, std::nullopt);
    if (!why.empty()) {
      *error = "fill answer: " + why;
      return false;
    }
  }
  return true;
}


std::vector<std::string> responses(const std::vector<std::string>& lines) {
  std::vector<std::string> out(1);
  for (const std::string& line : lines) {
    out.back() += line + "\n";
    if (pb::is_terminal_line(line)) {
      out.emplace_back();
    }
  }
  out.pop_back();
  return out;
}

JsonValue metric(double value, const char* unit) {
  JsonValue entry = JsonValue::object();
  entry.set("value", value);
  entry.set("unit", unit);
  return entry;
}

const char* predicted_layer(pb::Workload workload) {
  switch (workload) {
    case pb::Workload::kColdGrid:
      return "core.engine";
    case pb::Workload::kWarmMix:
      return "net.transport";
    case pb::Workload::kSimCampaign:
      return "sim.engine";
    case pb::Workload::kRouterWarm:
      return "net.router";
  }
  return "";
}

std::size_t traced_requests(pb::Workload workload) {
  switch (workload) {
    case pb::Workload::kColdGrid:
      return 400;
    case pb::Workload::kWarmMix:
      return 20000;
    case pb::Workload::kSimCampaign:
      return 16;
    case pb::Workload::kRouterWarm:
      return 1500;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_load --workload cold-grid|warm-mix|"
                 "sim-campaign|router-warm --seed N --seconds S --trace 0|1 "
                 "--run-dir DIR\n");
    return 2;
  }
  const pb::Workload workload = args.workload;
  const pb::ServerPlan plan = pb::server_plan(workload);
  const pb::LoadPlan load = pb::load_plan(workload);
  const bool warm = load.open_loop_phase;
  pb::RequestStream stream(workload, args.seed);
  const std::vector<std::string>& set = stream.working_set();

  // References, before any timing: the warm bytes every repeat of a set
  // entry must match.
  pb::Reference reference(plan.threads, 256);
  const std::vector<std::string> warm_answers = reference.warm_answers(set);

  const std::vector<std::string> setup_batch =
      set.empty() ? pb::warmup_requests(workload) : set;

  std::string error;
  // Set-up cost: the CPU seconds the server processes spend from spawn
  // until they answer a ping and have served the set-up batch. Each
  // set-up fleet is killed (no drain) and reaped, which makes its CPU
  // total exact; a fresh fleet then serves the measured phases.
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  std::unique_ptr<pb::Fleet> fleet;
  for (int k = 0; k <= kSetups; ++k) {
    const std::int64_t start = pb::now_ns();
    fleet = pb::start_fleet(plan, args.run_dir, &error);
    if (!fleet || !fill(*fleet, setup_batch, &error)) {
      std::fprintf(stderr, "perfbench_load: %s\n", error.c_str());
      return 1;
    }
    if (k == kSetups) {
      break;
    }
    setup_wall_s.push_back(static_cast<double>(pb::now_ns() - start) / 1e9);
    fleet->stop(SIGKILL);
    setup_cpu_s.push_back(fleet->cpu_seconds());
    fleet.reset();
  }

  // Measured phases.
  std::vector<std::pair<std::size_t, std::string>> samples;
  const pb::CheckFn check = [&](std::size_t index,
                                const std::string& response) -> std::string {
    if (warm) {
      return response == warm_answers[stream.set_index(index)]
                 ? ""
                 : "response differs from the reference";
    }
    std::string why = pb::check_shape(response, false);
    if (why.empty() && samples.size() < kMaxSamples &&
        pb::sampled(args.seed, index)) {
      samples.emplace_back(index, response);
    }
    return why;
  };
  const pb::LineFn line = [&stream](std::size_t index) -> const std::string& {
    return stream.line(index);
  };
  Counters before;
  Counters after;
  if (!read_counters(*fleet, before, &error)) {
    std::fprintf(stderr, "perfbench_load: stats: %s\n", error.c_str());
    return 1;
  }
  pb::Generator generator(fleet->port, load.connections, kStallMs);
  pb::Generator serial(fleet->port, 1, kStallMs);
  if (!generator.connect(&error) || !serial.connect(&error)) {
    std::fprintf(stderr, "perfbench_load: %s\n", error.c_str());
    return 1;
  }
  auto mark = [&fleet] { return Mark{pb::cpu_times(), fleet->cpu_seconds()}; };
  std::size_t next = 0;
  pb::CpuSampler sampler(fleet->pids(), kWindowMs);
  const Mark saturation_start = mark();
  pb::PhaseResult saturation = generator.closed_loop(
      line, load.in_flight, warm ? args.seconds * kSaturationShare : args.seconds,
      check, next);
  const Mark saturation_end = mark();
  const std::vector<double> ones(saturation.done_s.size(), 1.0);
  const double saturated_rps =
      pb::windowed_rate(saturation.done_s, ones, windows_for(ones.size()));
  pb::PhaseResult serial_phase;
  pb::PhaseResult open;
  Mark serial_end = saturation_end;
  double open_rate = 0.0;
  if (warm && saturation.failure.empty()) {
    serial_phase = serial.closed_loop(line, 1, args.seconds * kSerialShare,
                                      check, next);
    serial_end = mark();
  }
  const std::vector<pb::Window> windows = sampler.stop();
  // Memory of the gated phases: the open loop's backlog, if the host
  // stalls the daemon, is a diagnostic.
  const double peak_rss_mb = fleet->peak_rss_mb();
  if (warm && saturation.failure.empty() && serial_phase.failure.empty()) {
    open_rate = saturated_rps / 2.0;
    open = generator.open_loop(
        line,
        pb::poisson_arrivals(args.seed, open_rate,
                             args.seconds * (1.0 - kSaturationShare - kSerialShare)),
        check, next);
  }
  if (!read_counters(*fleet, after, &error)) {
    std::fprintf(stderr, "perfbench_load: stats: %s\n", error.c_str());
    return 1;
  }

  // Seeded sample of the cold streams against the reference, outside the
  // timed window.
  std::size_t sample_failures = 0;
  std::string failure;
  for (const pb::PhaseResult* phase : {&saturation, &serial_phase, &open}) {
    if (failure.empty()) {
      failure = phase->failure;
    }
  }
  for (const auto& [index, response] : samples) {
    const std::string expected = reference.answer(stream.line(index));
    const bool same = workload == pb::Workload::kColdGrid
                          ? pb::sorted_cells(response) == pb::sorted_cells(expected)
                          : response == expected;
    if (!same) {
      ++sample_failures;
      if (failure.empty()) {
        failure = "request " + std::to_string(index) +
                  ": response differs from the reference";
      }
    }
  }

  const std::size_t attempted =
      saturation.attempted + serial_phase.attempted + open.attempted;
  // A run that sent nothing measured nothing: it counts as one failure.
  const std::size_t failed =
      attempted == 0 ? 1
                     : saturation.failed + serial_phase.failed + open.failed +
                           sample_failures;
  // Latency comes from the one-in-flight loop: the serial phase of the
  // warm workloads, the whole closed loop of the others; CPU efficiency
  // from the saturation loop. Both from the quieter half of each phase
  // (see README.md).
  const pb::PhaseResult& timed = warm ? serial_phase : saturation;
  const std::vector<pb::Window> latency_windows =
      warm ? quiet_windows(windows, saturation_end, serial_end)
           : quiet_windows(windows, saturation_start, saturation_end);
  const std::vector<pb::Window> saturation_windows =
      quiet_windows(windows, saturation_start, saturation_end);
  const double p50_ms = pb::median_latency_ms(latency_windows, completions(timed));
  const double cells_per_cpu_s =
      pb::cells_per_cpu_s(saturation_windows, completions(saturation));
  const double latency_steal = warm ? steal_share(saturation_end, serial_end)
                                    : steal_share(saturation_start, saturation_end);
  const double raw_p50_ms =
      pb::windowed_median(timed.latency_ms, windows_for(timed.latency_ms.size()));
  const double ttfc_p50_ms =
      pb::windowed_median(timed.ttfc_ms, windows_for(timed.ttfc_ms.size()));
  const double saturation_cpu_s =
      saturation_end.server_cpu_s - saturation_start.server_cpu_s;
  std::vector<double> latency = timed.latency_ms;
  std::vector<double> open_latency = open.latency_ms;
  std::vector<double> lateness = open.lateness_ms;

  JsonValue metrics = JsonValue::object();
  JsonValue layers = JsonValue::object();
  if (!args.trace) {
    metrics.set("setup_s", metric(median(setup_cpu_s), "s"));
    metrics.set("p50_ms", metric(p50_ms, "ms"));
    metrics.set("cells_per_cpu_s", metric(cells_per_cpu_s, "1/s"));
    metrics.set("peak_rss_mb", metric(peak_rss_mb, "MiB"));
  } else {
    pb::TraceInput input;
    input.workload = workload;
    input.plan = plan;
    input.requests = traced_requests(workload);
    input.daemon_port = fleet->port;
    input.shard_ports = fleet->shard_ports;
    pb::TraceResult traced = pb::traced_replay(input, stream);
    auto& m = traced.metrics;
    auto delta = [&](const std::string& key) { return after[key] - before[key]; };
    auto mean = [&](const char* histogram) {
      const double count = delta(std::string(histogram) + ".count");
      return count > 0.0 ? delta(std::string(histogram) + ".total_us") / count : 0.0;
    };
    const double hits = delta("cache.hits");
    const double lookups = hits + delta("cache.misses");
    m["service.cache.hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
    m["service.cache.tables_inserted"] = delta("tables_computed");
    const double sim_cells = delta("sim.cells");
    m["sim.engine.early_stop_ratio"] =
        sim_cells > 0.0 ? delta("sim.early_stops") / sim_cells : 0.0;
    m["net.transport.us_per_req"] = p50_ms * 1e3 - traced.inprocess_p50_us;
    m["net.queue.wait_us_mean"] = mean("queue_wait");
    m["net.compute.us_mean"] = mean("compute");
    m["net.write.us_mean"] = mean("write");
    if (plan.shards > 0) {
      const double served = static_cast<double>(
          saturation.completed + serial_phase.completed + open.completed);
      m["net.router.subrequests_per_req"] =
          served > 0.0 ? delta("fleet.requests") / served : 0.0;
    }
    m["net.router.replays"] = delta("fleet.replays");
    static const std::pair<const char*, const char*> kLayerMetrics[] = {
        {"net.framing.us_per_line", "us"},
        {"service.admit.us_per_req", "us"},
        {"service.parse.us_per_req", "us"},
        {"core.signature.us_per_req", "us"},
        {"service.cache.us_per_hit", "us"},
        {"service.cache.hit_ratio", "ratio"},
        {"service.cache.tables_inserted", "count"},
        {"core.engine.cells_per_s", "1/s"},
        {"core.engine.cells", "count"},
        {"sim.engine.runs_per_s", "1/s"},
        {"sim.engine.runs", "count"},
        {"sim.engine.early_stop_ratio", "ratio"},
        {"service.serialize.us_per_line", "us"},
        {"service.serialize.bytes_per_req", "bytes"},
        {"net.transport.us_per_req", "us"},
        {"net.queue.wait_us_mean", "us"},
        {"net.compute.us_mean", "us"},
        {"net.router.overhead_us_per_req", "us"},
        {"net.router.subrequests_per_req", "count"},
        {"net.router.replays", "count"},
        {"trace.overhead_ratio", "ratio"},
        {"trace.unattributed_ratio", "ratio"},
    };
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics.set(name, metric(m[name], unit));
    }

    // Where the client-observed request time goes: in-process self time
    // per layer plus the transport remainder, per request.
    traced.layer_us_per_req["net.transport"] = m["net.transport.us_per_req"];
    std::string dominant;
    double most = -1.0;
    for (const auto& [layer, us] : traced.layer_us_per_req) {
      layers.set(layer, us);
      if (us > most) {
        most = us;
        dominant = layer;
      }
    }
    layers.set("dominant", dominant);
    layers.set("predicted", predicted_layer(workload));
    layers.set("inprocess_p50_us", traced.inprocess_p50_us);
    layers.set("reconcile_ratio", traced.reconcile_ratio);
    layers.set("net.write.us_mean", m["net.write.us_mean"]);
    const std::string span_file = args.run_dir + "/" +
                                  pb::workload_name(workload) + "-" +
                                  std::to_string(args.seed) + ".spans.jsonl";
    if (pb::write_spans(traced.spans, span_file)) {
      layers.set("span_file", span_file);
    }
  }
  fleet->stop();

  JsonValue diagnostics = JsonValue::object();
  diagnostics.set("workload", pb::workload_name(workload));
  diagnostics.set("seed", static_cast<double>(args.seed));
  diagnostics.set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  JsonValue flags = JsonValue::array();
  for (const std::string& command : fleet->flags) {
    flags.push_back(command);
  }
  diagnostics.set("servers", std::move(flags));
  diagnostics.set("generator_threads", 1);
  diagnostics.set("connections", load.connections);
  diagnostics.set("in_flight", load.in_flight);
  const auto steal_jiffies = [](const Mark& from, const Mark& to) {
    return static_cast<double>(to.cpu.steal - from.cpu.steal);
  };
  diagnostics.set("steal_jiffies", steal_jiffies(saturation_start, mark()));
  diagnostics.set("latency_steal_share", latency_steal);
  diagnostics.set("windows", windows.size());
  diagnostics.set("latency_windows", latency_windows.size());
  diagnostics.set("latency_windows_steal_share", mean_steal(latency_windows));
  diagnostics.set("saturation_windows", saturation_windows.size());
  diagnostics.set("saturation_windows_steal_share", mean_steal(saturation_windows));
  diagnostics.set("raw_p50_ms", raw_p50_ms);
  diagnostics.set("ttfc_p50_ms", ttfc_p50_ms);
  diagnostics.set("p99_ms", pb::percentile(latency, 0.99));
  diagnostics.set("p99_samples", latency.size());
  diagnostics.set("saturation_steal_share",
                  steal_share(saturation_start, saturation_end));
  diagnostics.set("cells_per_s",
                  pb::windowed_rate(saturation.done_s, saturation.done_cells,
                                    windows_for(ones.size())));
  diagnostics.set("saturated_rps", saturated_rps);
  diagnostics.set("cpu_ms_per_req",
                  saturation.completed > 0
                      ? saturation_cpu_s * 1e3 /
                            static_cast<double>(saturation.completed)
                      : 0.0);
  diagnostics.set("runs_per_s", saturation.elapsed_s > 0.0
                                    ? static_cast<double>(saturation.runs) /
                                          saturation.elapsed_s
                                    : 0.0);
  diagnostics.set("failed_ratio",
                  attempted > 0 ? static_cast<double>(failed) /
                                      static_cast<double>(attempted)
                                : 1.0);
  if (warm) {
    diagnostics.set("open_loop_rate", open_rate);
    diagnostics.set("open_loop_p50_ms", pb::percentile(open_latency, 0.5));
    diagnostics.set("open_loop_p99_ms", pb::percentile(open_latency, 0.99));
    diagnostics.set("open_loop_samples", open_latency.size());
    diagnostics.set("generator_lateness_p99_ms", pb::percentile(lateness, 0.99));
  }
  diagnostics.set("samples_checked", samples.size());
  JsonValue setups = JsonValue::array();
  for (std::size_t k = 0; k < setup_cpu_s.size(); ++k) {
    JsonValue setup = JsonValue::object();
    setup.set("cpu_s", setup_cpu_s[k]);
    setup.set("wall_s", setup_wall_s[k]);
    setups.push_back(std::move(setup));
  }
  diagnostics.set("setups", std::move(setups));
  if (!failure.empty()) {
    diagnostics.set("failure", failure);
    // The reason, and each server's last log lines (its drain line counts
    // dropped connections), where a caller that keeps only stderr sees it.
    std::fprintf(stderr, "perfbench_load: run failed: %s\n", failure.c_str());
    for (const std::string& command : fleet->flags) {
      const std::string name = command.substr(0, command.find(':'));
      std::fprintf(stderr, "%s.log ends:\n%s", name.c_str(),
                   log_tail(args.run_dir + "/" + name + ".log", 3).c_str());
    }
  }
  std::printf("diagnostics %s\n", diagnostics.dump().c_str());
  if (args.trace) {
    std::printf("layers %s\n", layers.dump().c_str());
  }

  JsonValue result = JsonValue::object();
  result.set("correct", failed == 0 && failure.empty());
  result.set("attempted", std::max<std::size_t>(attempted, 1));
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
