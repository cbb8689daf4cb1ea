#include "resilience/service/scenario_request.hpp"

#include <cmath>
#include <utility>

#include "resilience/core/platform.hpp"
#include "resilience/service/serialize.hpp"

namespace resilience::service {

namespace {

using util::JsonValue;

std::string elem(const std::string& axis, std::size_t index) {
  return axis + "[" + std::to_string(index) + "]";
}

double as_number(const JsonValue& value, const std::string& path) {
  if (!value.is_number()) {
    throw RequestError(path, "expected a number");
  }
  return value.as_double();
}

double finite_number(const JsonValue& value, const std::string& path) {
  const double number = as_number(value, path);
  if (!std::isfinite(number)) {
    throw RequestError(path, "expected a finite number");
  }
  return number;
}

std::size_t positive_integer(const JsonValue& value, const std::string& path) {
  const double number = as_number(value, path);
  if (!(number > 0.0) || number != std::floor(number) || number > 1e15) {
    throw RequestError(path, "expected a positive integer");
  }
  return static_cast<std::size_t>(number);
}

const JsonValue::Array& as_axis_array(const JsonValue& value,
                                      const std::string& path) {
  if (!value.is_array()) {
    throw RequestError(path, "expected an array");
  }
  return value.as_array();
}

/// Rejects typo'd member names: every object field must be consumed by one
/// of the `known` names.
void reject_unknown_fields(const JsonValue& object, const std::string& path,
                           std::initializer_list<const char*> known) {
  for (const auto& [key, value] : object.as_object()) {
    bool recognized = false;
    for (const char* name : known) {
      if (key == name) {
        recognized = true;
        break;
      }
    }
    if (!recognized) {
      throw RequestError(path.empty() ? key : path + "." + key,
                         "unknown field '" + key + "'");
    }
  }
}

core::Platform parse_platform(const JsonValue& value, const std::string& path) {
  if (value.is_string()) {
    try {
      return core::platform_by_name(value.as_string());
    } catch (const std::invalid_argument& error) {
      throw RequestError(path, error.what());
    }
  }
  if (!value.is_object()) {
    throw RequestError(path, "expected a catalog name or a platform object");
  }
  reject_unknown_fields(value, path,
                        {"name", "nodes", "fail_stop", "silent",
                         "disk_checkpoint", "memory_checkpoint"});
  core::Platform platform;
  if (const JsonValue* name = value.find("name")) {
    if (!name->is_string()) {
      throw RequestError(path + ".name", "expected a string");
    }
    platform.name = name->as_string();
  } else {
    platform.name = "custom";
  }
  const auto required = [&](const char* field) -> const JsonValue& {
    const JsonValue* member = value.find(field);
    if (member == nullptr) {
      throw RequestError(path + "." + field, "missing required field");
    }
    return *member;
  };
  platform.nodes = positive_integer(required("nodes"), path + ".nodes");
  platform.rates.fail_stop =
      finite_number(required("fail_stop"), path + ".fail_stop");
  platform.rates.silent = finite_number(required("silent"), path + ".silent");
  platform.disk_checkpoint =
      finite_number(required("disk_checkpoint"), path + ".disk_checkpoint");
  platform.memory_checkpoint = finite_number(required("memory_checkpoint"),
                                             path + ".memory_checkpoint");
  if (platform.rates.fail_stop < 0.0) {
    throw RequestError(path + ".fail_stop", "rate must be >= 0");
  }
  if (platform.rates.silent < 0.0) {
    throw RequestError(path + ".silent", "rate must be >= 0");
  }
  if (!(platform.disk_checkpoint > 0.0)) {
    throw RequestError(path + ".disk_checkpoint", "cost must be positive");
  }
  if (!(platform.memory_checkpoint > 0.0)) {
    throw RequestError(path + ".memory_checkpoint", "cost must be positive");
  }
  return platform;
}

/// Optional-field override objects: {"fail_stop": 2.0} etc. Every member
/// must be a finite number; unknown members are rejected.
core::RateFactors parse_rate_factors(const JsonValue& value,
                                     const std::string& path) {
  if (!value.is_object()) {
    throw RequestError(path, "expected an object");
  }
  reject_unknown_fields(value, path, {"fail_stop", "silent"});
  core::RateFactors factors;
  if (const JsonValue* fail_stop = value.find("fail_stop")) {
    factors.fail_stop = finite_number(*fail_stop, path + ".fail_stop");
  }
  if (const JsonValue* silent = value.find("silent")) {
    factors.silent = finite_number(*silent, path + ".silent");
  }
  return factors;
}

core::CostOverride parse_cost_override(const JsonValue& value,
                                       const std::string& path) {
  if (!value.is_object()) {
    throw RequestError(path, "expected an object");
  }
  reject_unknown_fields(value, path,
                        {"disk_checkpoint", "partial_verification", "recall"});
  core::CostOverride override_value;
  if (const JsonValue* disk = value.find("disk_checkpoint")) {
    override_value.disk_checkpoint =
        finite_number(*disk, path + ".disk_checkpoint");
  }
  if (const JsonValue* partial = value.find("partial_verification")) {
    override_value.partial_verification =
        finite_number(*partial, path + ".partial_verification");
  }
  if (const JsonValue* recall = value.find("recall")) {
    override_value.recall = finite_number(*recall, path + ".recall");
  }
  return override_value;
}

/// The `sim` block of a simulate request. Budgets are capped like every
/// other request-supplied integer (1e15: exact in a double); axis values
/// must be finite and positive (weibull_shape) / non-negative (faulty_ops).
SimParams parse_sim_params(const JsonValue& value) {
  if (!value.is_object()) {
    throw RequestError("sim", "expected an object");
  }
  reject_unknown_fields(value, "sim",
                        {"seed", "target_ci", "max_runs", "min_runs",
                         "patterns_per_run", "weibull_shape", "faulty_ops"});
  SimParams sim;
  if (const JsonValue* seed = value.find("seed")) {
    const double number = as_number(*seed, "sim.seed");
    if (!(number >= 0.0) || number != std::floor(number) || number > 1e15) {
      throw RequestError("sim.seed", "expected a non-negative integer");
    }
    sim.seed = static_cast<std::uint64_t>(number);
  }
  if (const JsonValue* target = value.find("target_ci")) {
    const double number = finite_number(*target, "sim.target_ci");
    if (!(number >= 0.0) || number >= 1.0) {
      throw RequestError("sim.target_ci",
                         "expected a relative CI in [0, 1) (0 = run to "
                         "max_runs)");
    }
    sim.target_ci = number;
  }
  if (const JsonValue* max_runs = value.find("max_runs")) {
    sim.max_runs = positive_integer(*max_runs, "sim.max_runs");
  }
  if (const JsonValue* min_runs = value.find("min_runs")) {
    sim.min_runs = positive_integer(*min_runs, "sim.min_runs");
  }
  if (sim.min_runs > sim.max_runs) {
    throw RequestError("sim.min_runs", "must be <= sim.max_runs");
  }
  if (const JsonValue* patterns = value.find("patterns_per_run")) {
    sim.patterns_per_run = positive_integer(*patterns, "sim.patterns_per_run");
  }
  if (const JsonValue* shapes = value.find("weibull_shape")) {
    const auto& axis = as_axis_array(*shapes, "sim.weibull_shape");
    if (axis.empty()) {
      throw RequestError("sim.weibull_shape", "need at least one value");
    }
    sim.weibull_shape.clear();
    for (std::size_t i = 0; i < axis.size(); ++i) {
      const std::string path = elem("sim.weibull_shape", i);
      const double shape = finite_number(axis[i], path);
      if (!(shape > 0.0)) {
        throw RequestError(path, "shape must be positive");
      }
      sim.weibull_shape.push_back(shape);
    }
  }
  if (const JsonValue* ops = value.find("faulty_ops")) {
    const auto& axis = as_axis_array(*ops, "sim.faulty_ops");
    if (axis.empty()) {
      throw RequestError("sim.faulty_ops", "need at least one value");
    }
    sim.faulty_ops.clear();
    for (std::size_t i = 0; i < axis.size(); ++i) {
      const std::string path = elem("sim.faulty_ops", i);
      const double factor = finite_number(axis[i], path);
      if (!(factor >= 0.0)) {
        throw RequestError(path, "factor must be >= 0");
      }
      sim.faulty_ops.push_back(factor);
    }
  }
  return sim;
}

}  // namespace

RequestError::RequestError(std::string field_path, const std::string& message)
    : std::runtime_error(field_path.empty() ? message
                                            : field_path + ": " + message),
      field(std::move(field_path)),
      text(field.empty() ? message : field + ": " + message) {}

ScenarioRequest ScenarioRequest::from_json(const JsonValue& json) {
  if (!json.is_object()) {
    throw RequestError("", "request must be a JSON object");
  }
  reject_unknown_fields(json, "",
                        {"id", "platforms", "node_counts", "rate_factors",
                         "cost_overrides", "kinds", "numeric_optimum",
                         "reuse_seeds", "stats", "deadline_ms", "mode",
                         "sim"});

  ScenarioRequest request;
  if (const JsonValue* id = json.find("id")) {
    if (!id->is_string()) {
      throw RequestError("id", "expected a string");
    }
    request.id = id->as_string();
  }

  const JsonValue* platforms = json.find("platforms");
  if (platforms == nullptr) {
    throw RequestError("platforms", "missing required field");
  }
  const auto& platform_axis = as_axis_array(*platforms, "platforms");
  if (platform_axis.empty()) {
    throw RequestError("platforms", "need at least one platform");
  }
  for (std::size_t i = 0; i < platform_axis.size(); ++i) {
    request.grid.platforms.push_back(
        parse_platform(platform_axis[i], elem("platforms", i)));
  }

  if (const JsonValue* node_counts = json.find("node_counts")) {
    const auto& axis = as_axis_array(*node_counts, "node_counts");
    for (std::size_t i = 0; i < axis.size(); ++i) {
      request.grid.node_counts.push_back(
          positive_integer(axis[i], elem("node_counts", i)));
    }
  }
  if (const JsonValue* rate_factors = json.find("rate_factors")) {
    const auto& axis = as_axis_array(*rate_factors, "rate_factors");
    for (std::size_t i = 0; i < axis.size(); ++i) {
      request.grid.rate_factors.push_back(
          parse_rate_factors(axis[i], elem("rate_factors", i)));
    }
  }
  if (const JsonValue* cost_overrides = json.find("cost_overrides")) {
    const auto& axis = as_axis_array(*cost_overrides, "cost_overrides");
    for (std::size_t i = 0; i < axis.size(); ++i) {
      request.grid.cost_overrides.push_back(
          parse_cost_override(axis[i], elem("cost_overrides", i)));
    }
  }
  if (const JsonValue* kinds = json.find("kinds")) {
    const auto& axis = as_axis_array(*kinds, "kinds");
    for (std::size_t i = 0; i < axis.size(); ++i) {
      if (!axis[i].is_string()) {
        throw RequestError(elem("kinds", i), "expected a pattern name string");
      }
      try {
        request.grid.kinds.push_back(
            core::pattern_kind_from_name(axis[i].as_string()));
      } catch (const std::invalid_argument& error) {
        throw RequestError(elem("kinds", i), error.what());
      }
    }
  }
  if (const JsonValue* numeric = json.find("numeric_optimum")) {
    if (!numeric->is_bool()) {
      throw RequestError("numeric_optimum", "expected a boolean");
    }
    request.numeric_optimum = numeric->as_bool();
  }
  if (const JsonValue* reuse = json.find("reuse_seeds")) {
    if (!reuse->is_bool()) {
      throw RequestError("reuse_seeds", "expected a boolean");
    }
    request.reuse_seeds = reuse->as_bool();
  }
  if (const JsonValue* stats = json.find("stats")) {
    if (!stats->is_bool()) {
      throw RequestError("stats", "expected a boolean");
    }
    request.include_stats = stats->as_bool();
  }
  if (const JsonValue* deadline = json.find("deadline_ms")) {
    const double number = as_number(*deadline, "deadline_ms");
    if (!(number >= 0.0) || number != std::floor(number) || number > 1e9) {
      throw RequestError("deadline_ms",
                         "expected a non-negative integer number of "
                         "milliseconds (0 = no deadline)");
    }
    request.deadline_ms = static_cast<int>(number);
  }
  if (const JsonValue* mode = json.find("mode")) {
    if (!mode->is_string()) {
      throw RequestError("mode", "expected a string");
    }
    const std::string& name = mode->as_string();
    if (name == "simulate") {
      request.simulate = true;
    } else if (name != "sweep") {
      throw RequestError("mode",
                         "unknown mode '" + name +
                             "' (expected \"sweep\" or \"simulate\")");
    }
  }
  if (const JsonValue* sim = json.find("sim")) {
    if (!request.simulate) {
      throw RequestError("sim",
                         "only valid with \"mode\": \"simulate\"");
    }
    request.sim = parse_sim_params(*sim);
  }

  // Axis semantics (positivity, override sentinels) and the resolved
  // parameter combinations: surface every problem at parse time, not when
  // a worker thread touches the point. The thrown messages already name
  // the axis and index ("ScenarioGrid.rate_factors[2]: ...").
  try {
    (void)core::resolve_points(request.grid);
  } catch (const std::invalid_argument& error) {
    throw RequestError("", error.what());
  }
  return request;
}

ScenarioRequest ScenarioRequest::parse(std::string_view text) {
  JsonValue json;
  try {
    json = JsonValue::parse(text);
  } catch (const util::JsonError& error) {
    throw RequestError("", std::string("invalid JSON: ") + error.what());
  }
  return from_json(json);
}

JsonValue ScenarioRequest::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("id", id);
  JsonValue platforms = JsonValue::array();
  for (const core::Platform& platform : grid.platforms) {
    platforms.push_back(service::to_json(platform));
  }
  out.set("platforms", std::move(platforms));
  if (!grid.node_counts.empty()) {
    JsonValue node_counts = JsonValue::array();
    for (const std::size_t nodes : grid.node_counts) {
      node_counts.push_back(nodes);
    }
    out.set("node_counts", std::move(node_counts));
  }
  if (!grid.rate_factors.empty()) {
    JsonValue rate_factors = JsonValue::array();
    for (const core::RateFactors& factors : grid.rate_factors) {
      JsonValue entry = JsonValue::object();
      entry.set("fail_stop", factors.fail_stop);
      entry.set("silent", factors.silent);
      rate_factors.push_back(std::move(entry));
    }
    out.set("rate_factors", std::move(rate_factors));
  }
  if (!grid.cost_overrides.empty()) {
    JsonValue cost_overrides = JsonValue::array();
    for (const core::CostOverride& override_value : grid.cost_overrides) {
      JsonValue entry = JsonValue::object();
      if (override_value.disk_checkpoint >= 0.0) {
        entry.set("disk_checkpoint", override_value.disk_checkpoint);
      }
      if (override_value.partial_verification >= 0.0) {
        entry.set("partial_verification", override_value.partial_verification);
      }
      if (override_value.recall >= 0.0) {
        entry.set("recall", override_value.recall);
      }
      cost_overrides.push_back(std::move(entry));
    }
    out.set("cost_overrides", std::move(cost_overrides));
  }
  if (!grid.kinds.empty()) {
    JsonValue kinds = JsonValue::array();
    for (const core::PatternKind kind : grid.kinds) {
      kinds.push_back(core::pattern_name(kind));
    }
    out.set("kinds", std::move(kinds));
  }
  out.set("numeric_optimum", numeric_optimum);
  out.set("reuse_seeds", reuse_seeds);
  if (include_stats) {  // default-off flag stays absent, like the axes
    out.set("stats", true);
  }
  if (deadline_ms > 0) {  // the 0 default stays absent too
    out.set("deadline_ms", deadline_ms);
  }
  if (simulate) {
    out.set("mode", "simulate");
    // Every sim field is emitted explicitly (defaults included): the
    // router round-trips sub-requests through this serialization, and a
    // budget that silently fell back to a shard-side default would break
    // the byte-identity contract.
    JsonValue sim_json = JsonValue::object();
    sim_json.set("seed", sim.seed);
    sim_json.set("target_ci", sim.target_ci);
    sim_json.set("max_runs", sim.max_runs);
    sim_json.set("min_runs", sim.min_runs);
    sim_json.set("patterns_per_run", sim.patterns_per_run);
    JsonValue shapes = JsonValue::array();
    for (const double shape : sim.weibull_shape) {
      shapes.push_back(shape);
    }
    sim_json.set("weibull_shape", std::move(shapes));
    JsonValue ops = JsonValue::array();
    for (const double factor : sim.faulty_ops) {
      ops.push_back(factor);
    }
    sim_json.set("faulty_ops", std::move(ops));
    out.set("sim", std::move(sim_json));
  }
  return out;
}

}  // namespace resilience::service
