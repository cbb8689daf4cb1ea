#pragma once

// JSON (de)serialization of the sweep result types — the one place result
// formatting lives. The figure drivers, the JSONL streaming service and
// the cache persistence all emit through these functions, so a table
// printed by a bench harness and a table streamed by sweep_server carry
// byte-identical values: every byte goes through util::JsonWriter's one
// set of rules, and serialize -> parse -> re-serialize is byte-identical
// (pinned by test_service).
//
// Each type has one field list and one way out:
//  * writer functions (util::JsonWriter, no tree) for the types on the
//    per-line path: SweepCell and SimCell (write_members), and the
//    tables that hold them (to_json_text, the spill payload);
//  * tree builders (to_json -> util::JsonValue, written by walking the
//    tree) for the types off it: platforms, params, points, ServiceStats
//    and CostEstimate (requests: ScenarioRequest::to_json).
// No type has both. A caller that needs a cell or a table as a tree
// parses the writer's text. Every result line below is written through
// the writer; cell and done lines build no tree, except the opt-in stats
// block a caller hands a done line.

#include <cstdint>
#include <string>

#include "resilience/core/sweep.hpp"
#include "resilience/util/json.hpp"

namespace resilience::service {

struct ServiceStats;  // sweep_service.hpp; serialization only reads it
struct CostEstimate;  // cost_model.hpp; serialization only reads it
struct SimCell;       // sim_table.hpp; serialization only reads them
struct SimTable;

/// SweepCell <-> JSON. write_members writes the cell's members ("point",
/// "kind", "first_order", ..., "warm_started") into the writer's open
/// object: a cell line's body, or one element of a table's "cells". The
/// family is serialized once (as the paper's name, e.g. "PDMV*"); the
/// nested first_order block omits it and re-inherits it on parse.
void write_members(util::JsonWriter& out, const core::SweepCell& cell);
[[nodiscard]] core::SweepCell cell_from_json(const util::JsonValue& json);

/// Platform <-> JSON (name, nodes, platform-level rates and costs).
[[nodiscard]] util::JsonValue to_json(const core::Platform& platform);
[[nodiscard]] core::Platform platform_from_json(const util::JsonValue& json);

/// ModelParams <-> JSON (flat cost + rate fields).
[[nodiscard]] util::JsonValue to_json(const core::ModelParams& params);
[[nodiscard]] core::ModelParams params_from_json(const util::JsonValue& json);

/// ScenarioPoint <-> JSON (axis indices + resolved platform and params).
[[nodiscard]] util::JsonValue to_json(const core::ScenarioPoint& point);
[[nodiscard]] core::ScenarioPoint point_from_json(const util::JsonValue& json);

/// SweepTable <-> JSON. to_json_text writes the compact document
/// {"type":"sweep_table","kinds","points","cells"}; table_from_json()
/// re-indexes the family lookup, so cell() works on a deserialized table.
[[nodiscard]] std::string to_json_text(const core::SweepTable& table);
[[nodiscard]] core::SweepTable table_from_json(const util::JsonValue& json);

/// SimCell <-> JSON (simulate mode): write_members writes "point",
/// "kind" (the paper's name, like SweepCell's), "weibull_shape",
/// "faulty_ops", "mean", "ci_low", "ci_high", "runs", "early_stopped"
/// into the writer's open object.
void write_members(util::JsonWriter& out, const SimCell& cell);
[[nodiscard]] SimCell sim_cell_from_json(const util::JsonValue& json);

/// SimTable <-> JSON. to_json_text writes the compact document
/// {"type":"sim_table","kinds","points","sim","cells"};
/// sim_table_from_json() re-validates the canonical
/// point-major/family/shape/ops cell order, so index arithmetic works on
/// a deserialized table.
[[nodiscard]] std::string to_json_text(const SimTable& table);
[[nodiscard]] SimTable sim_table_from_json(const util::JsonValue& json);

/// ServiceStats -> JSON: {"service":{submission counters},"cache":{tier
/// counters},"sim":{simulate-mode counters},"engine":{analytic search
/// work}} — the block a `stats` request returns and an opt-in done line
/// embeds.
[[nodiscard]] util::JsonValue to_json(const ServiceStats& stats);

/// CostEstimate -> JSON: {"units","cells","chains","seeded_chains",
/// "identity_hit"} — the admission-time prediction, embedded as the
/// "cost" member of an opt-in done-line stats block so estimates are
/// auditable against the latencies the transport records.
[[nodiscard]] util::JsonValue to_json(const CostEstimate& estimate);

/// One streamed-response JSONL line (no trailing newline). Cell and done
/// lines of both modes share one envelope — "type", "request",
/// "signature", then the mode's own fields:
///   cell_line      -> {"type":"cell", ..., <SweepCell>}
///   done_line      -> {"type":"done", ..., summary of the finished table}
///   sim_cell_line  -> {"type":"cell", ..., <SimCell>: "mean","ci_low",
///                      "ci_high","runs","early_stopped"}
///   sim_done_line  -> {"type":"done", ..., "mode":"simulate", ..., "runs"
///                      (total over all cells)}
///   stats_line -> {"type":"stats","request":...,<ServiceStats blocks>}
///   error_line -> {"type":"error","request":...,"field":...,"message":...}
///   overloaded_line -> an error line extended with a machine-readable
///                  "code":"overloaded" and a "retry_after_ms" hint — the
///                  admission-control rejection; retriable by contract
///                  (nothing executed), unlike plain error lines
///   pong_line  -> {"type":"pong","request":...} — the health probe's
///                 answer; a terminal line like done/stats/error
/// A done line's optional `stats` is written, by walking the tree, as a
/// trailing "stats" member (requests opt in via "stats": true): a daemon
/// passes its ServiceStats blocks plus the admission-time "cost", the
/// router its merged {"shards": [...]} block. stats_line's optional
/// `transport` appends a transport-layer block (scheduler counters +
/// latency histograms — see NetServer::overload_stats_json) after the
/// service/cache blocks. Both are opt-in so the stdin path's bytes are
/// untouched.
[[nodiscard]] std::string cell_line(const std::string& request_id,
                                    core::GridSignature signature,
                                    const core::SweepCell& cell);
[[nodiscard]] std::string done_line(const std::string& request_id,
                                    core::GridSignature signature,
                                    const core::SweepTable& table,
                                    bool cache_hit, bool joined_in_flight,
                                    const util::JsonValue* stats = nullptr);
[[nodiscard]] std::string sim_cell_line(const std::string& request_id,
                                        core::GridSignature signature,
                                        const SimCell& cell);
[[nodiscard]] std::string sim_done_line(const std::string& request_id,
                                        core::GridSignature signature,
                                        const SimTable& table, bool cache_hit,
                                        const util::JsonValue* stats = nullptr);
[[nodiscard]] std::string stats_line(const std::string& request_id,
                                     const ServiceStats& stats,
                                     const util::JsonValue* transport = nullptr);
[[nodiscard]] std::string error_line(const std::string& request_id,
                                     const std::string& field,
                                     const std::string& message);
[[nodiscard]] std::string overloaded_line(const std::string& request_id,
                                          std::int64_t retry_after_ms);
[[nodiscard]] std::string pong_line(const std::string& request_id);

}  // namespace resilience::service
