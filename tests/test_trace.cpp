// Tests for the simulation trace recorder.

#include "resilience/sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "resilience/core/platform.hpp"

namespace rs = resilience::sim;
namespace rc = resilience::core;
namespace ru = resilience::util;

TEST(EventName, AllEventsHaveDistinctNames) {
  const rs::Event events[] = {
      rs::Event::kChunkCompleted,  rs::Event::kFailStop,
      rs::Event::kSilentInjected,  rs::Event::kPartialAlarm,
      rs::Event::kGuaranteedAlarm, rs::Event::kMemoryCheckpoint,
      rs::Event::kDiskCheckpoint,  rs::Event::kMemoryRecovery,
      rs::Event::kDiskRecovery,    rs::Event::kPatternCompleted};
  std::set<std::string> names;
  for (const auto event : events) {
    names.insert(rs::event_name(event));
  }
  EXPECT_EQ(names.size(), std::size(events));
}

TEST(TraceRecorder, RecordsManually) {
  rs::TraceRecorder trace;
  trace.record(rs::Event::kFailStop, 1.5);
  trace.record(rs::Event::kDiskRecovery, 2.5);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.entries()[0].event, rs::Event::kFailStop);
  EXPECT_DOUBLE_EQ(trace.entries()[1].clock, 2.5);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceRecorder, CountsByType) {
  rs::TraceRecorder trace;
  trace.record(rs::Event::kDiskCheckpoint, 1.0);
  trace.record(rs::Event::kDiskCheckpoint, 2.0);
  trace.record(rs::Event::kMemoryCheckpoint, 3.0);
  EXPECT_EQ(trace.count(rs::Event::kDiskCheckpoint), 2u);
  EXPECT_EQ(trace.count(rs::Event::kMemoryCheckpoint), 1u);
  EXPECT_EQ(trace.count(rs::Event::kFailStop), 0u);
}

TEST(TraceRecorder, InterEventGaps) {
  rs::TraceRecorder trace;
  trace.record(rs::Event::kDiskCheckpoint, 10.0);
  trace.record(rs::Event::kMemoryCheckpoint, 15.0);
  trace.record(rs::Event::kDiskCheckpoint, 30.0);
  trace.record(rs::Event::kDiskCheckpoint, 40.0);
  const auto gaps = trace.inter_event_gaps(rs::Event::kDiskCheckpoint);
  EXPECT_EQ(gaps.count(), 2u);
  EXPECT_DOUBLE_EQ(gaps.mean(), 15.0);  // gaps of 20 and 10
}

TEST(TraceRecorder, FirstAndLastOccurrence) {
  rs::TraceRecorder trace;
  trace.record(rs::Event::kFailStop, 5.0);
  trace.record(rs::Event::kFailStop, 9.0);
  EXPECT_DOUBLE_EQ(trace.first_occurrence(rs::Event::kFailStop), 5.0);
  EXPECT_DOUBLE_EQ(trace.last_occurrence(rs::Event::kFailStop), 9.0);
  EXPECT_THROW((void)trace.first_occurrence(rs::Event::kDiskRecovery),
               std::out_of_range);
  EXPECT_THROW((void)trace.last_occurrence(rs::Event::kDiskRecovery),
               std::out_of_range);
}

TEST(TraceRecorder, CsvExport) {
  rs::TraceRecorder trace;
  trace.record(rs::Event::kDiskCheckpoint, 1.5);
  std::ostringstream os;
  trace.write_csv(os);
  EXPECT_EQ(os.str(), "clock,event\n1.5,disk_checkpoint\n");
}

TEST(TraceRecorder, CapturesEngineRun) {
  const auto params = rc::hera().model_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kDM, 20000.0, 2, 1, 1.0);

  rs::TraceRecorder trace;
  rs::ErrorModel errors(params.rates, ru::Xoshiro256(3));
  const rs::EventObserver observer = trace.observer();
  const auto metrics = rs::simulate_patterns(pattern, params, errors, 20, observer);

  EXPECT_EQ(trace.count(rs::Event::kDiskCheckpoint), metrics.disk_checkpoints);
  EXPECT_EQ(trace.count(rs::Event::kPatternCompleted), 20u);
  // The realized gap between consecutive disk checkpoints is at least the
  // error-free pattern time.
  const auto gaps = trace.inter_event_gaps(rs::Event::kDiskCheckpoint);
  if (gaps.count() > 0) {
    const double error_free = 20000.0 +
                              2.0 * (params.costs.guaranteed_verification +
                                     params.costs.memory_checkpoint) +
                              params.costs.disk_checkpoint;
    EXPECT_GE(gaps.min(), error_free - 1e-6);
  }
}

TEST(TraceRecorder, ClockIsMonotonic) {
  const auto params = rc::hera().scaled_to(1u << 14).model_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 5000.0, 2, 3, 0.8);
  rs::TraceRecorder trace;
  rs::ErrorModel errors(params.rates, ru::Xoshiro256(7));
  const rs::EventObserver observer = trace.observer();
  (void)rs::simulate_patterns(pattern, params, errors, 50, observer);
  double previous = 0.0;
  for (const auto& entry : trace.entries()) {
    EXPECT_GE(entry.clock, previous);
    previous = entry.clock;
  }
}
