#include "resilience/service/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "resilience/service/cost_model.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/service/sweep_service.hpp"

namespace resilience::service {

namespace {

using util::JsonValue;
using util::JsonWriter;

const JsonValue& require(const JsonValue& json, const char* field) {
  const JsonValue* value = json.find(field);
  if (value == nullptr) {
    throw std::runtime_error(std::string("serialize: missing field '") +
                             field + "'");
  }
  return *value;
}

double require_double(const JsonValue& json, const char* field) {
  return require(json, field).as_double();
}

std::size_t require_index(const JsonValue& json, const char* field) {
  const double value = require(json, field).as_double();
  if (!(value >= 0.0) || value != std::floor(value) || value > 9.007199254740992e15) {
    throw std::runtime_error(std::string("serialize: field '") + field +
                             "' is not a non-negative integer");
  }
  return static_cast<std::size_t>(value);
}

/// The family names of a table, in its column order.
void write_kind_names(JsonWriter& out,
                      const std::vector<core::PatternKind>& kinds) {
  out.begin_array();
  for (const core::PatternKind kind : kinds) {
    out.value(core::pattern_name(kind));
  }
  out.end_array();
}

/// Opens a table document: "type", "kinds", then "points", each point
/// written by walking its tree.
void open_table(JsonWriter& out, const char* type,
                const std::vector<core::PatternKind>& kinds,
                const std::vector<core::ScenarioPoint>& points) {
  out.begin_object().member("type", type).key("kinds");
  write_kind_names(out, kinds);
  out.key("points").begin_array();
  for (const core::ScenarioPoint& point : points) {
    out.value(to_json(point));
  }
  out.end_array();
}

/// Closes a table document with its "cells", one object per cell.
template <class Cell>
void close_table(JsonWriter& out, const std::vector<Cell>& cells) {
  out.key("cells").begin_array();
  for (const Cell& cell : cells) {
    out.begin_object();
    write_members(out, cell);
    out.end_object();
  }
  out.end_array().end_object();
}

/// Points must carry the axis indices resolve_points() gives them: the
/// (platform, node, rate, cost) tuples of a full product grid, in
/// lexicographic order. A table's signature covers each point's resolved
/// parameters but not its indices, and the seed tier picks a chain's
/// points by platform and cost index, so a spill edited to move a point
/// to another chain must not load.
void check_point_axes(const std::vector<core::ScenarioPoint>& points) {
  std::size_t nodes_n = 0;
  std::size_t rates_n = 0;
  std::size_t costs_n = 0;
  for (const core::ScenarioPoint& point : points) {
    nodes_n = std::max(nodes_n, point.node_index + 1);
    rates_n = std::max(rates_n, point.rate_index + 1);
    costs_n = std::max(costs_n, point.cost_index + 1);
  }
  std::size_t platform = 0;
  std::size_t node = 0;
  std::size_t rate = 0;
  std::size_t cost = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::ScenarioPoint& point = points[i];
    if (point.platform_index != platform || point.node_index != node ||
        point.rate_index != rate || point.cost_index != cost) {
      throw std::runtime_error("serialize: point " + std::to_string(i) +
                               " carries axis indices out of grid order");
    }
    if (++cost == costs_n) {
      cost = 0;
      if (++rate == rates_n) {
        rate = 0;
        if (++node == nodes_n) {
          node = 0;
          ++platform;
        }
      }
    }
  }
  if (node != 0 || rate != 0 || cost != 0) {
    throw std::runtime_error("serialize: points do not fill their grid");
  }
}

/// Opens a result line, cell or done alike, in both modes: "type",
/// "request" and "signature". The caller writes the mode's members and
/// closes the object.
JsonWriter& open_result_line(JsonWriter& out, const char* type,
                             const std::string& request_id,
                             core::GridSignature signature) {
  return out.begin_object()
      .member("type", type)
      .member("request", request_id)
      .member("signature", signature.hex());
}

/// A cell line of either mode: the envelope, then the cell's members.
template <class Cell>
std::string result_cell_line(const std::string& request_id,
                             core::GridSignature signature, const Cell& cell) {
  std::string line;
  JsonWriter out(line);
  open_result_line(out, "cell", request_id, signature);
  write_members(out, cell);
  out.end_object();
  return line;
}

}  // namespace

void write_members(JsonWriter& out, const core::SweepCell& cell) {
  const core::FirstOrderSolution& first_order = cell.first_order;
  out.member("point", cell.point_index)
      .member("kind", core::pattern_name(cell.kind))
      .key("first_order")
      .begin_object()
      .member("segments_n", first_order.segments_n)
      .member("chunks_m", first_order.chunks_m)
      .member("rational_n", first_order.rational_n)
      .member("rational_m", first_order.rational_m)
      .member("work", first_order.work)
      .member("overhead", first_order.overhead)
      .member("error_free", first_order.coefficients.error_free)
      .member("reexecuted_work", first_order.coefficients.reexecuted_work)
      .end_object()
      .member("exact_at_first_order", cell.exact_at_first_order)
      .member("segments_n", cell.segments_n)
      .member("chunks_m", cell.chunks_m)
      .member("work", cell.work)
      .member("overhead", cell.overhead)
      .member("warm_started", cell.warm_started);
}

core::SweepCell cell_from_json(const JsonValue& json) {
  core::SweepCell cell;
  cell.point_index = require_index(json, "point");
  cell.kind = core::pattern_kind_from_name(require(json, "kind").as_string());

  const JsonValue& first_order = require(json, "first_order");
  cell.first_order.kind = cell.kind;
  cell.first_order.segments_n = require_index(first_order, "segments_n");
  cell.first_order.chunks_m = require_index(first_order, "chunks_m");
  cell.first_order.rational_n = require_double(first_order, "rational_n");
  cell.first_order.rational_m = require_double(first_order, "rational_m");
  cell.first_order.work = require_double(first_order, "work");
  cell.first_order.overhead = require_double(first_order, "overhead");
  cell.first_order.coefficients.error_free =
      require_double(first_order, "error_free");
  cell.first_order.coefficients.reexecuted_work =
      require_double(first_order, "reexecuted_work");

  cell.exact_at_first_order = require_double(json, "exact_at_first_order");
  cell.segments_n = require_index(json, "segments_n");
  cell.chunks_m = require_index(json, "chunks_m");
  cell.work = require_double(json, "work");
  cell.overhead = require_double(json, "overhead");
  cell.warm_started = require(json, "warm_started").as_bool();
  return cell;
}

JsonValue to_json(const core::Platform& platform) {
  JsonValue out = JsonValue::object();
  out.set("name", platform.name);
  out.set("nodes", platform.nodes);
  out.set("fail_stop", platform.rates.fail_stop);
  out.set("silent", platform.rates.silent);
  out.set("disk_checkpoint", platform.disk_checkpoint);
  out.set("memory_checkpoint", platform.memory_checkpoint);
  return out;
}

core::Platform platform_from_json(const JsonValue& json) {
  core::Platform platform;
  platform.name = require(json, "name").as_string();
  platform.nodes = require_index(json, "nodes");
  platform.rates.fail_stop = require_double(json, "fail_stop");
  platform.rates.silent = require_double(json, "silent");
  platform.disk_checkpoint = require_double(json, "disk_checkpoint");
  platform.memory_checkpoint = require_double(json, "memory_checkpoint");
  return platform;
}

JsonValue to_json(const core::ModelParams& params) {
  JsonValue costs = JsonValue::object();
  costs.set("disk_checkpoint", params.costs.disk_checkpoint);
  costs.set("memory_checkpoint", params.costs.memory_checkpoint);
  costs.set("disk_recovery", params.costs.disk_recovery);
  costs.set("memory_recovery", params.costs.memory_recovery);
  costs.set("guaranteed_verification", params.costs.guaranteed_verification);
  costs.set("partial_verification", params.costs.partial_verification);
  costs.set("recall", params.costs.recall);
  JsonValue rates = JsonValue::object();
  rates.set("fail_stop", params.rates.fail_stop);
  rates.set("silent", params.rates.silent);
  JsonValue out = JsonValue::object();
  out.set("costs", std::move(costs));
  out.set("rates", std::move(rates));
  return out;
}

core::ModelParams params_from_json(const JsonValue& json) {
  core::ModelParams params;
  const JsonValue& costs = require(json, "costs");
  params.costs.disk_checkpoint = require_double(costs, "disk_checkpoint");
  params.costs.memory_checkpoint = require_double(costs, "memory_checkpoint");
  params.costs.disk_recovery = require_double(costs, "disk_recovery");
  params.costs.memory_recovery = require_double(costs, "memory_recovery");
  params.costs.guaranteed_verification =
      require_double(costs, "guaranteed_verification");
  params.costs.partial_verification =
      require_double(costs, "partial_verification");
  params.costs.recall = require_double(costs, "recall");
  const JsonValue& rates = require(json, "rates");
  params.rates.fail_stop = require_double(rates, "fail_stop");
  params.rates.silent = require_double(rates, "silent");
  return params;
}

JsonValue to_json(const core::ScenarioPoint& point) {
  JsonValue out = JsonValue::object();
  out.set("platform_index", point.platform_index);
  out.set("node_index", point.node_index);
  out.set("rate_index", point.rate_index);
  out.set("cost_index", point.cost_index);
  out.set("platform", to_json(point.platform));
  out.set("params", to_json(point.params));
  return out;
}

core::ScenarioPoint point_from_json(const JsonValue& json) {
  core::ScenarioPoint point;
  point.platform_index = require_index(json, "platform_index");
  point.node_index = require_index(json, "node_index");
  point.rate_index = require_index(json, "rate_index");
  point.cost_index = require_index(json, "cost_index");
  point.platform = platform_from_json(require(json, "platform"));
  point.params = params_from_json(require(json, "params"));
  return point;
}

std::string to_json_text(const core::SweepTable& table) {
  std::string text;
  JsonWriter out(text);
  open_table(out, "sweep_table", table.kinds, table.points);
  close_table(out, table.cells);
  return text;
}

core::SweepTable table_from_json(const JsonValue& json) {
  core::SweepTable table;
  for (const JsonValue& kind : require(json, "kinds").as_array()) {
    table.kinds.push_back(core::pattern_kind_from_name(kind.as_string()));
  }
  for (const JsonValue& point : require(json, "points").as_array()) {
    table.points.push_back(point_from_json(point));
  }
  check_point_axes(table.points);
  for (const JsonValue& cell : require(json, "cells").as_array()) {
    table.cells.push_back(cell_from_json(cell));
  }
  if (table.kinds.empty() ||
      table.cells.size() != table.points.size() * table.kinds.size()) {
    throw std::runtime_error(
        "serialize: cell count does not match points x kinds");
  }
  // Each cell must sit in its point-major/family-minor slot, or cell()'s
  // index arithmetic would silently return the wrong cell on permuted
  // (e.g. stream-reassembled) input.
  for (std::size_t i = 0; i < table.cells.size(); ++i) {
    const core::SweepCell& cell = table.cells[i];
    if (cell.point_index != i / table.kinds.size() ||
        cell.kind != table.kinds[i % table.kinds.size()]) {
      throw std::runtime_error(
          "serialize: cell " + std::to_string(i) +
          " is out of point-major/family-minor order (point " +
          std::to_string(cell.point_index) + ", kind " +
          core::pattern_name(cell.kind) + ")");
    }
  }
  table.index_kinds();
  return table;
}

std::string cell_line(const std::string& request_id,
                      core::GridSignature signature,
                      const core::SweepCell& cell) {
  return result_cell_line(request_id, signature, cell);
}

void write_members(JsonWriter& out, const SimCell& cell) {
  out.member("point", cell.point_index)
      .member("kind", core::pattern_name(cell.kind))
      .member("weibull_shape", cell.weibull_shape)
      .member("faulty_ops", cell.faulty_ops)
      .member("mean", cell.mean)
      .member("ci_low", cell.ci_low)
      .member("ci_high", cell.ci_high)
      .member("runs", cell.runs)
      .member("early_stopped", cell.early_stopped);
}

SimCell sim_cell_from_json(const JsonValue& json) {
  SimCell cell;
  cell.point_index = require_index(json, "point");
  cell.kind = core::pattern_kind_from_name(require(json, "kind").as_string());
  cell.weibull_shape = require_double(json, "weibull_shape");
  cell.faulty_ops = require_double(json, "faulty_ops");
  cell.mean = require_double(json, "mean");
  cell.ci_low = require_double(json, "ci_low");
  cell.ci_high = require_double(json, "ci_high");
  cell.runs = static_cast<std::uint64_t>(require_index(json, "runs"));
  cell.early_stopped = require(json, "early_stopped").as_bool();
  return cell;
}

std::string to_json_text(const SimTable& table) {
  std::string text;
  JsonWriter out(text);
  open_table(out, "sim_table", table.kinds, table.points);
  out.key("sim")
      .begin_object()
      .member("seed", table.params.seed)
      .member("target_ci", table.params.target_ci)
      .member("max_runs", table.params.max_runs)
      .member("min_runs", table.params.min_runs)
      .member("patterns_per_run", table.params.patterns_per_run)
      .key("weibull_shape")
      .begin_array();
  for (const double shape : table.params.weibull_shape) {
    out.value(shape);
  }
  out.end_array().key("faulty_ops").begin_array();
  for (const double factor : table.params.faulty_ops) {
    out.value(factor);
  }
  out.end_array().end_object();
  close_table(out, table.cells);
  return text;
}

SimTable sim_table_from_json(const JsonValue& json) {
  SimTable table;
  for (const JsonValue& kind : require(json, "kinds").as_array()) {
    table.kinds.push_back(core::pattern_kind_from_name(kind.as_string()));
  }
  for (const JsonValue& point : require(json, "points").as_array()) {
    table.points.push_back(point_from_json(point));
  }
  check_point_axes(table.points);
  const JsonValue& sim = require(json, "sim");
  table.params.seed =
      static_cast<std::uint64_t>(require_index(sim, "seed"));
  table.params.target_ci = require_double(sim, "target_ci");
  table.params.max_runs =
      static_cast<std::uint64_t>(require_index(sim, "max_runs"));
  table.params.min_runs =
      static_cast<std::uint64_t>(require_index(sim, "min_runs"));
  table.params.patterns_per_run =
      static_cast<std::uint64_t>(require_index(sim, "patterns_per_run"));
  table.params.weibull_shape.clear();
  for (const JsonValue& shape : require(sim, "weibull_shape").as_array()) {
    table.params.weibull_shape.push_back(shape.as_double());
  }
  table.params.faulty_ops.clear();
  for (const JsonValue& factor : require(sim, "faulty_ops").as_array()) {
    table.params.faulty_ops.push_back(factor.as_double());
  }
  for (const JsonValue& cell : require(json, "cells").as_array()) {
    table.cells.push_back(sim_cell_from_json(cell));
  }
  if (table.kinds.empty() || table.params.weibull_shape.empty() ||
      table.params.faulty_ops.empty() ||
      table.cells.size() != table.cell_count()) {
    throw std::runtime_error(
        "serialize: sim cell count does not match points x kinds x axes");
  }
  // Each cell must sit in its canonical point/family/shape/ops slot, or
  // cell_index() arithmetic would return the wrong cell on permuted
  // (e.g. stream-reassembled) input.
  const std::size_t shapes_n = table.params.weibull_shape.size();
  const std::size_t ops_n = table.params.faulty_ops.size();
  for (std::size_t i = 0; i < table.cells.size(); ++i) {
    const SimCell& cell = table.cells[i];
    const std::size_t ops_index = i % ops_n;
    const std::size_t shape_index = (i / ops_n) % shapes_n;
    const std::size_t kind_index = (i / (ops_n * shapes_n)) % table.kinds.size();
    const std::size_t point_index = i / (ops_n * shapes_n * table.kinds.size());
    if (cell.point_index != point_index ||
        cell.kind != table.kinds[kind_index] ||
        cell.weibull_shape != table.params.weibull_shape[shape_index] ||
        cell.faulty_ops != table.params.faulty_ops[ops_index]) {
      throw std::runtime_error("serialize: sim cell " + std::to_string(i) +
                               " is out of canonical order (point " +
                               std::to_string(cell.point_index) + ", kind " +
                               core::pattern_name(cell.kind) + ")");
    }
  }
  return table;
}

JsonValue to_json(const ServiceStats& stats) {
  JsonValue service = JsonValue::object();
  service.set("submits", stats.submits);
  service.set("cache_hits", stats.cache_hits);
  service.set("disk_hits", stats.disk_hits);
  service.set("joined_in_flight", stats.joined_in_flight);
  service.set("tables_computed", stats.tables_computed);
  service.set("seeded_computes", stats.seeded_computes);
  service.set("deadline_timeouts", stats.deadline_timeouts);
  JsonValue cache = JsonValue::object();
  cache.set("size", stats.cache_size);
  cache.set("capacity", stats.cache_capacity);
  cache.set("hits", stats.cache_lookup_hits);
  cache.set("misses", stats.cache_lookup_misses);
  cache.set("seed_hits", stats.seed_hits);
  cache.set("disk_loads", stats.disk_loads);
  cache.set("disk_rejects", stats.disk_rejects);
  JsonValue sim = JsonValue::object();
  sim.set("submits", stats.sim_submits);
  sim.set("cache_hits", stats.sim_cache_hits);
  sim.set("disk_hits", stats.sim_disk_hits);
  sim.set("cells", stats.sim_cells);
  sim.set("runs", stats.sim_runs);
  sim.set("early_stops", stats.sim_early_stops);
  sim.set("runs_per_second", stats.sim_runs_per_second);
  JsonValue engine = JsonValue::object();
  engine.set("lattice_cells", stats.engine_lattice_cells);
  engine.set("w_probes", stats.engine_w_probes);
  engine.set("full_bracket_fallbacks", stats.engine_full_bracket_fallbacks);
  JsonValue out = JsonValue::object();
  out.set("service", std::move(service));
  out.set("cache", std::move(cache));
  out.set("sim", std::move(sim));
  out.set("engine", std::move(engine));
  return out;
}

JsonValue to_json(const CostEstimate& estimate) {
  JsonValue out = JsonValue::object();
  out.set("units", estimate.units);
  out.set("cells", estimate.cells);
  out.set("chains", estimate.chains);
  out.set("seeded_chains", estimate.seeded_chains);
  out.set("identity_hit", estimate.identity_hit);
  return out;
}

std::string stats_line(const std::string& request_id, const ServiceStats& stats,
                       const util::JsonValue* transport) {
  std::string line;
  JsonWriter out(line);
  out.begin_object().member("type", "stats").member("request", request_id);
  const JsonValue blocks = to_json(stats);
  for (const auto& [name, block] : blocks.as_object()) {
    out.member(name, block);
  }
  if (transport != nullptr) {
    out.member("transport", *transport);
  }
  out.end_object();
  return line;
}

std::string done_line(const std::string& request_id,
                      core::GridSignature signature,
                      const core::SweepTable& table, bool cache_hit,
                      bool joined_in_flight, const JsonValue* stats) {
  std::string line;
  JsonWriter out(line);
  open_result_line(out, "done", request_id, signature)
      .member("points", table.points.size())
      .key("kinds");
  write_kind_names(out, table.kinds);
  out.member("cells", table.cells.size())
      .member("cache_hit", cache_hit)
      .member("joined_in_flight", joined_in_flight);
  if (stats != nullptr) {
    out.member("stats", *stats);
  }
  out.end_object();
  return line;
}

std::string sim_cell_line(const std::string& request_id,
                          core::GridSignature signature, const SimCell& cell) {
  return result_cell_line(request_id, signature, cell);
}

std::string sim_done_line(const std::string& request_id,
                          core::GridSignature signature, const SimTable& table,
                          bool cache_hit, const JsonValue* stats) {
  std::uint64_t total_runs = 0;
  for (const SimCell& cell : table.cells) {
    total_runs += cell.runs;
  }
  std::string line;
  JsonWriter out(line);
  open_result_line(out, "done", request_id, signature)
      .member("mode", "simulate")
      .member("points", table.points.size())
      .key("kinds");
  write_kind_names(out, table.kinds);
  out.member("cells", table.cells.size())
      .member("runs", total_runs)
      .member("cache_hit", cache_hit);
  if (stats != nullptr) {
    out.member("stats", *stats);
  }
  out.end_object();
  return line;
}

std::string pong_line(const std::string& request_id) {
  std::string line;
  JsonWriter(line)
      .begin_object()
      .member("type", "pong")
      .member("request", request_id)
      .end_object();
  return line;
}

std::string error_line(const std::string& request_id, const std::string& field,
                       const std::string& message) {
  std::string line;
  JsonWriter(line)
      .begin_object()
      .member("type", "error")
      .member("request", request_id)
      .member("field", field)
      .member("message", message)
      .end_object();
  return line;
}

std::string overloaded_line(const std::string& request_id,
                            std::int64_t retry_after_ms) {
  // An error line (same leading fields, so clients that only know
  // "type":"error" still terminate the request) extended with the
  // machine-readable shed marker. "field" is empty: the request itself
  // was fine — the server's queue was not.
  std::string line;
  JsonWriter(line)
      .begin_object()
      .member("type", "error")
      .member("request", request_id)
      .member("field", "")
      .member("message",
              "server overloaded: request shed at admission; retry after " +
                  std::to_string(retry_after_ms) + " ms")
      .member("code", "overloaded")
      .member("retry_after_ms", retry_after_ms)
      .end_object();
  return line;
}

}  // namespace resilience::service
