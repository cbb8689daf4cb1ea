// Unit tests of net::FairScheduler, the daemon's admission control and
// start-time fair queue, on synthetic time: no sockets, no threads, no
// clock. What NetServer's overload tests show end to end over a socket
// (test_overload), these pin rule by rule: the head order, both sheds
// and the empty-queue exception, the charge of non-scenario lines, the
// retry hint, the refunds, and the histograms' percentile clamp.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>

#include "resilience/net/scheduler.hpp"
#include "resilience/util/json.hpp"

namespace rn = resilience::net;
namespace util = resilience::util;

namespace {

using Clock = rn::FairScheduler::Clock;
using Flow = rn::FairScheduler::Flow;
using Ticket = rn::FairScheduler::Ticket;
using std::chrono::milliseconds;

/// An arbitrary origin for synthetic time.
const Clock::time_point t0 = Clock::time_point{} + std::chrono::hours(1);

TEST(FairScheduler, ALightFlowsHeadGoesBeforeAHeavyFlowsSecondItem) {
  rn::FairScheduler scheduler(0.0, 0);
  Flow heavy{1};
  Flow light{2};
  const std::optional<Ticket> heavy_first =
      scheduler.admit_scenario(heavy, 100.0, 0, t0);
  const std::optional<Ticket> heavy_second =
      scheduler.admit_scenario(heavy, 100.0, 0, t0);
  ASSERT_TRUE(heavy_first && heavy_second);
  EXPECT_EQ(heavy_second->start_tag, 100.0);
  scheduler.start(heavy, *heavy_first, t0);

  // Admitted after both heavy items, the light flow's first request
  // still carries the earlier tag: the heavy backlog pushes back only
  // its own flow.
  const std::optional<Ticket> light_first =
      scheduler.admit_scenario(light, 1.0, 0, t0 + milliseconds(1));
  ASSERT_TRUE(light_first);
  EXPECT_EQ(light_first->start_tag, 0.0);
  EXPECT_TRUE(rn::FairScheduler::before(*light_first, *heavy_second));
  EXPECT_FALSE(rn::FairScheduler::before(*heavy_second, *light_first));

  // Equal tags: a stated deadline first, then the earlier deadline, then
  // the lower flow id.
  Ticket a;
  a.flow = 7;
  Ticket b;
  b.flow = 3;
  EXPECT_TRUE(rn::FairScheduler::before(b, a));
  a.deadline_ms = 50;
  EXPECT_TRUE(rn::FairScheduler::before(a, b));
  b.deadline_ms = 20;
  EXPECT_TRUE(rn::FairScheduler::before(b, a));
  EXPECT_FALSE(rn::FairScheduler::before(a, b));
}

TEST(FairScheduler, ShedsByCostExceptIntoAnEmptyQueue) {
  rn::FairScheduler scheduler(10.0, 0);
  Flow flow{1};
  // Bigger than the whole budget, but nothing waits: admitted.
  const std::optional<Ticket> oversized =
      scheduler.admit_scenario(flow, 50.0, 0, t0);
  ASSERT_TRUE(oversized);
  EXPECT_FALSE(scheduler.admit_scenario(flow, 1.0, 0, t0));
  scheduler.start(flow, *oversized, t0);  // the queue is empty again

  EXPECT_TRUE(scheduler.admit_scenario(flow, 4.0, 0, t0));
  EXPECT_TRUE(scheduler.admit_scenario(flow, 6.0, 0, t0));  // 10: at budget
  EXPECT_FALSE(scheduler.admit_scenario(flow, 0.5, 0, t0));  // past it

  const rn::OverloadStats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.shed_overload, 2u);
  EXPECT_EQ(stats.queued_depth, 2u);
  EXPECT_EQ(stats.queued_cost, 10.0);
}

TEST(FairScheduler, ShedsByDepth) {
  rn::FairScheduler scheduler(0.0, 2);
  Flow flow{1};
  const std::optional<Ticket> first =
      scheduler.admit_scenario(flow, 1.0, 0, t0);
  ASSERT_TRUE(first);
  EXPECT_TRUE(scheduler.admit_scenario(flow, 1.0, 0, t0));
  // A shed stamps no tag: the flow's finish tag stays where it was.
  const double finish_before = flow.finish_tag;
  EXPECT_FALSE(scheduler.admit_scenario(flow, 1.0, 0, t0));
  EXPECT_EQ(flow.finish_tag, finish_before);

  scheduler.start(flow, *first, t0);  // one slot frees
  EXPECT_TRUE(scheduler.admit_scenario(flow, 1.0, 0, t0));
  const rn::OverloadStats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.shed_overload, 1u);
  EXPECT_EQ(stats.queued_depth, 2u);
}

TEST(FairScheduler, NonScenarioLinesAreChargedAFractionAndNeverShed) {
  rn::FairScheduler scheduler(1.0, 1);
  Flow flow{1};
  ASSERT_TRUE(scheduler.admit_scenario(flow, 1.0, 0, t0));  // queue full
  ASSERT_FALSE(scheduler.admit_scenario(flow, 1.0, 0, t0));
  double start_tag = flow.finish_tag;
  for (int i = 0; i < 100; ++i) {
    const Ticket line = scheduler.admit_line(flow, t0);
    EXPECT_EQ(line.cost, 1.0 / 64.0);
    EXPECT_EQ(line.cost, rn::FairScheduler::kNonScenarioCost);
    EXPECT_FALSE(line.scenario);
    EXPECT_FALSE(line.has_deadline());
    EXPECT_EQ(line.start_tag, start_tag);
    start_tag += 1.0 / 64.0;
  }
  // None of them waits in the budget.
  const rn::OverloadStats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed_overload, 1u);
  EXPECT_EQ(stats.queued_depth, 1u);
  EXPECT_EQ(stats.queued_cost, 1.0);

  // A fully warm scenario is still charged the floor.
  rn::FairScheduler open(0.0, 0);
  const std::optional<Ticket> warm = open.admit_scenario(flow, 0.0, 0, t0);
  ASSERT_TRUE(warm);
  EXPECT_EQ(warm->cost, rn::FairScheduler::kMinScenarioCost);
}

TEST(FairScheduler, RetryAfterIsASecondBeforeAnyCompletionThenBacklogOverRate) {
  rn::FairScheduler scheduler(0.0, 0);
  Flow flow{1};
  const std::optional<Ticket> first =
      scheduler.admit_scenario(flow, 10.0, 0, t0);
  ASSERT_TRUE(first);
  EXPECT_EQ(scheduler.stats().retry_after_ms, 1000);
  scheduler.start(flow, *first, t0);
  EXPECT_EQ(scheduler.stats().retry_after_ms, 1000);
  scheduler.finish(flow, t0 + milliseconds(5));  // 10 units in 5 ms
  EXPECT_EQ(scheduler.stats().drain_rate_units_per_ms, 2.0);
  EXPECT_EQ(scheduler.stats().retry_after_ms, 1);  // nothing left: the floor

  // 8 units waiting at 2 units/ms, and the same 8 once executing.
  const std::optional<Ticket> second =
      scheduler.admit_scenario(flow, 8.0, 0, t0 + milliseconds(5));
  ASSERT_TRUE(second);
  EXPECT_EQ(scheduler.stats().retry_after_ms, 4);
  scheduler.start(flow, *second, t0 + milliseconds(5));
  EXPECT_EQ(scheduler.stats().retry_after_ms, 4);

  // 8 units over the 8 ms since the last completion: 1 unit/ms, folded
  // in at weight 0.2.
  scheduler.finish(flow, t0 + milliseconds(13));
  EXPECT_DOUBLE_EQ(scheduler.stats().drain_rate_units_per_ms, 1.8);

  ASSERT_TRUE(scheduler.admit_scenario(flow, 1e9, 0, t0 + milliseconds(13)));
  EXPECT_EQ(scheduler.stats().retry_after_ms, 60000);  // the ceiling
}

TEST(FairScheduler, ExpiryAndCloseRefundTheWaitingBudget) {
  rn::FairScheduler scheduler(0.0, 0);
  Flow flow{1};
  const std::optional<Ticket> expiring =
      scheduler.admit_scenario(flow, 2.0, 50, t0);
  const std::optional<Ticket> closing =
      scheduler.admit_scenario(flow, 3.5, 0, t0);
  ASSERT_TRUE(expiring && closing);
  EXPECT_TRUE(expiring->has_deadline());
  EXPECT_EQ(expiring->deadline(), t0 + milliseconds(50));
  EXPECT_EQ(scheduler.stats().queued_cost, 5.5);

  EXPECT_FALSE(scheduler.expire(*expiring, t0 + milliseconds(49)));
  EXPECT_FALSE(scheduler.expire(*closing, t0 + std::chrono::hours(1)));
  EXPECT_EQ(scheduler.stats().queued_depth, 2u);
  EXPECT_TRUE(scheduler.expire(*expiring, t0 + milliseconds(50)));
  scheduler.withdraw(*closing);
  // A line that is not a scenario was never charged: nothing to refund.
  scheduler.withdraw(scheduler.admit_line(flow, t0));

  const rn::OverloadStats stats = scheduler.stats();
  EXPECT_EQ(stats.queued_cost, 0.0);
  EXPECT_EQ(stats.queued_depth, 0u);
  EXPECT_EQ(stats.shed_expired, 1u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST(FairScheduler, EveryHistogramsP99StaysAtOrBelowItsMax) {
  rn::FairScheduler scheduler(0.0, 0);
  Flow flow{1};
  // 5 us lands in the [4, 8) bucket, whose bound 7 is past every sample.
  for (const int us : {5, 3, 5, 5}) {
    const std::chrono::microseconds wait(us);
    const std::optional<Ticket> ticket =
        scheduler.admit_scenario(flow, 1.0, 0, t0);
    ASSERT_TRUE(ticket);
    scheduler.start(flow, *ticket, t0 + wait);
    scheduler.finish(flow, t0 + 2 * wait);
    scheduler.record_write(t0 + 2 * wait, t0 + 3 * wait);
  }
  scheduler.count_served_inline();

  const rn::OverloadStats stats = scheduler.stats();
  EXPECT_EQ(stats.served_inline, 1u);
  for (const rn::LatencyHistogram* histogram :
       {&stats.queue_wait, &stats.compute, &stats.write}) {
    EXPECT_EQ(histogram->count, 4u);
    EXPECT_EQ(histogram->max_us, 5u);
    EXPECT_LE(histogram->approx_percentile_us(0.99), histogram->max_us);
    EXPECT_LE(histogram->approx_percentile_us(0.5), histogram->max_us);
  }
  const util::JsonValue json = scheduler.stats_json();
  const util::JsonValue* latency = json.find("latency_us");
  ASSERT_NE(latency, nullptr);
  for (const char* stage : {"queue_wait", "compute", "write"}) {
    const util::JsonValue* histogram = latency->find(stage);
    ASSERT_NE(histogram, nullptr) << stage;
    EXPECT_LE(histogram->find("p99_us")->as_double(),
              histogram->find("max_us")->as_double())
        << stage;
  }
  EXPECT_NE(json.find("scheduler"), nullptr);
}

}  // namespace
