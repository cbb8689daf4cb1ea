#pragma once

// Simulation event tracing: a TraceRecorder plugs into the engine as an
// EventObserver (handed to simulate_patterns), records the (event, clock)
// stream, and supports CSV export and simple queries (counts, inter-event
// gaps). Useful for debugging rollback behaviour and for the engine's own
// black-box tests. Not thread-safe: one recorder per run.

#include <iosfwd>
#include <string>
#include <vector>

#include "resilience/sim/engine.hpp"
#include "resilience/util/stats.hpp"

namespace resilience::sim {

/// Human-readable name of a simulation event.
[[nodiscard]] std::string event_name(Event event);

/// One recorded trace entry.
struct TraceEntry {
  Event event;
  double clock = 0.0;
};

class TraceRecorder {
 public:
  /// Creates the recorder; `capacity_hint` preallocates storage.
  explicit TraceRecorder(std::size_t capacity_hint = 1024);

  /// Observer to hand to simulate_patterns. Both the recorder and the
  /// returned function must outlive the simulation run.
  [[nodiscard]] EventObserver observer();

  void record(Event event, double clock);
  void clear() noexcept;

  [[nodiscard]] const std::vector<TraceEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Number of occurrences of one event type.
  [[nodiscard]] std::size_t count(Event event) const noexcept;

  /// Statistics of the gaps between consecutive occurrences of `event`
  /// (e.g. the realized time between disk checkpoints).
  [[nodiscard]] util::RunningStats inter_event_gaps(Event event) const;

  /// Clock of the first/last occurrence; throws std::out_of_range if the
  /// event never occurred.
  [[nodiscard]] double first_occurrence(Event event) const;
  [[nodiscard]] double last_occurrence(Event event) const;

  /// CSV export: header "clock,event" then one row per entry.
  void write_csv(std::ostream& os) const;

 private:
  std::vector<TraceEntry> entries_;
};

}  // namespace resilience::sim
