#include "resilience/net/scheduler.hpp"

#include <algorithm>
#include <cmath>

namespace resilience::net {

namespace {

using Clock = FairScheduler::Clock;

std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
  if (to <= from) {
    return 0;
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

util::JsonValue histogram_json(const LatencyHistogram& histogram) {
  util::JsonValue out = util::JsonValue::object();
  out.set("count", histogram.count);
  out.set("total_us", histogram.total_us);
  out.set("max_us", histogram.max_us);
  out.set("p50_us", histogram.approx_percentile_us(0.5));
  out.set("p99_us", histogram.approx_percentile_us(0.99));
  return out;
}

}  // namespace

FairScheduler::FairScheduler(double max_queue_cost,
                             std::size_t max_queue_depth)
    : max_queue_cost_(max_queue_cost), max_queue_depth_(max_queue_depth) {}

FairScheduler::Ticket FairScheduler::stamp(Flow& flow, double cost,
                                           Clock::time_point now) {
  // Start-time fair queueing: the tag is where the global virtual clock
  // will be once every unit this flow admitted before has had its fair
  // share.
  Ticket ticket;
  ticket.flow = flow.id;
  ticket.cost = cost;
  ticket.start_tag = std::max(virtual_time_, flow.finish_tag);
  ticket.enqueued = now;
  flow.finish_tag = ticket.start_tag + cost;
  return ticket;
}

std::optional<FairScheduler::Ticket> FairScheduler::admit_scenario(
    Flow& flow, double units, int deadline_ms, Clock::time_point now) {
  const double cost = std::max(units, kMinScenarioCost);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // The non-empty-queue condition keeps oversized singletons servable:
    // shedding them forever would make the budget a size limit, not an
    // overload control.
    if ((max_queue_depth_ != 0 && stats_.queued_depth >= max_queue_depth_) ||
        (max_queue_cost_ > 0.0 && stats_.queued_depth > 0 &&
         stats_.queued_cost + cost > max_queue_cost_)) {
      ++stats_.shed_overload;
      return std::nullopt;
    }
    ++stats_.admitted;
    stats_.queued_cost += cost;
    ++stats_.queued_depth;
  }
  Ticket ticket = stamp(flow, cost, now);
  ticket.scenario = true;
  ticket.deadline_ms = deadline_ms;
  return ticket;
}

bool FairScheduler::before(const Ticket& a, const Ticket& b) {
  if (a.start_tag != b.start_tag) {
    return a.start_tag < b.start_tag;
  }
  if (a.has_deadline() != b.has_deadline()) {
    return a.has_deadline();  // a stated deadline outranks none
  }
  if (a.has_deadline() && a.deadline() != b.deadline()) {
    return a.deadline() < b.deadline();
  }
  return a.flow < b.flow;
}

void FairScheduler::start(Flow& flow, const Ticket& ticket,
                          Clock::time_point now) {
  virtual_time_ = std::max(virtual_time_, ticket.start_tag);
  flow.running_cost = ticket.scenario ? ticket.cost : 0.0;
  flow.started = now;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ticket.scenario) {
    discharge(ticket);
    executing_units_ += ticket.cost;
  }
  stats_.queue_wait.record(elapsed_us(ticket.enqueued, now));
}

void FairScheduler::finish(Flow& flow, Clock::time_point now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.compute.record(elapsed_us(flow.started, now));
  if (flow.running_cost > 0.0) {
    executing_units_ = std::max(0.0, executing_units_ - flow.running_cost);
    // EWMA drain rate in units/ms, sampled per completion over the wall
    // time since the previous one (first sample: this request's own
    // compute time). Overload arithmetic only — never results.
    const Clock::time_point since = last_completion_ == Clock::time_point{}
                                        ? flow.started
                                        : last_completion_;
    const double dt_ms =
        std::max(static_cast<double>(elapsed_us(since, now)) / 1000.0, 0.01);
    const double instant = flow.running_cost / dt_ms;
    stats_.drain_rate_units_per_ms =
        stats_.drain_rate_units_per_ms <= 0.0
            ? instant
            : 0.2 * instant + 0.8 * stats_.drain_rate_units_per_ms;
    last_completion_ = now;
  }
  flow.running_cost = 0.0;
}

void FairScheduler::count_served_inline() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.served_inline;
}

void FairScheduler::record_write(Clock::time_point done,
                                 Clock::time_point now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.write.record(elapsed_us(done, now));
}

bool FairScheduler::expire(const Ticket& ticket, Clock::time_point now) {
  if (!ticket.has_deadline() || now < ticket.deadline()) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  discharge(ticket);
  ++stats_.shed_expired;
  return true;
}

void FairScheduler::withdraw(const Ticket& ticket) {
  if (ticket.scenario) {
    const std::lock_guard<std::mutex> lock(mutex_);
    discharge(ticket);
  }
}

void FairScheduler::discharge(const Ticket& ticket) {
  stats_.queued_cost = std::max(0.0, stats_.queued_cost - ticket.cost);
  if (stats_.queued_depth > 0) {
    --stats_.queued_depth;
  }
}

OverloadStats FairScheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  OverloadStats snapshot = stats_;
  snapshot.retry_after_ms = 1000;  // no completions yet: a round second
  if (stats_.drain_rate_units_per_ms > 1e-9) {
    // How long until the work ahead of a request shed now has drained.
    const double hint = (stats_.queued_cost + executing_units_) /
                        stats_.drain_rate_units_per_ms;
    snapshot.retry_after_ms = std::clamp<std::int64_t>(
        std::llround(std::min(hint, 60000.0)), 1, 60000);
  }
  return snapshot;
}

util::JsonValue FairScheduler::stats_json() const {
  const OverloadStats snapshot = stats();
  util::JsonValue scheduler = util::JsonValue::object();
  scheduler.set("admitted", snapshot.admitted);
  scheduler.set("shed_overload", snapshot.shed_overload);
  scheduler.set("shed_expired", snapshot.shed_expired);
  scheduler.set("served_inline", snapshot.served_inline);
  scheduler.set("queued_cost", snapshot.queued_cost);
  scheduler.set("queued_depth", snapshot.queued_depth);
  scheduler.set("drain_rate_units_per_ms", snapshot.drain_rate_units_per_ms);
  scheduler.set("retry_after_ms", snapshot.retry_after_ms);
  util::JsonValue latency = util::JsonValue::object();
  latency.set("queue_wait", histogram_json(snapshot.queue_wait));
  latency.set("compute", histogram_json(snapshot.compute));
  latency.set("write", histogram_json(snapshot.write));
  util::JsonValue out = util::JsonValue::object();
  out.set("scheduler", std::move(scheduler));
  out.set("latency_us", std::move(latency));
  return out;
}

}  // namespace resilience::net
