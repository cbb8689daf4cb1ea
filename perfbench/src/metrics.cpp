#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * frac;
}

double windowed_rate(const std::vector<double>& done_s,
                     const std::vector<double>& weight, std::size_t windows) {
  const std::size_t n = std::min(done_s.size(), weight.size());
  if (windows == 0 || n < windows) {
    return 0.0;
  }
  std::vector<double> rates;
  double previous_end = 0.0;
  std::size_t begin = 0;
  for (std::size_t w = 1; w <= windows; ++w) {
    const std::size_t end = n * w / windows;
    double work = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      work += weight[i];
    }
    const double span = done_s[end - 1] - previous_end;
    if (span > 0.0) {
      rates.push_back(work / span);
    }
    previous_end = done_s[end - 1];
    begin = end;
  }
  return percentile(rates, 0.5);
}

double windowed_median(const std::vector<double>& values, std::size_t windows) {
  if (windows == 0 || values.size() < windows) {
    std::vector<double> all = values;
    return percentile(all, 0.5);
  }
  std::vector<double> medians;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> window(
        values.begin() + static_cast<std::ptrdiff_t>(values.size() * w / windows),
        values.begin() +
            static_cast<std::ptrdiff_t>(values.size() * (w + 1) / windows));
    medians.push_back(percentile(window, 0.5));
  }
  return percentile(medians, 0.5);
}

std::vector<Window> quieter_half(const std::vector<Window>& windows,
                                 std::int64_t from_ns, std::int64_t to_ns) {
  std::vector<Window> inside;
  for (const Window& window : windows) {
    if (window.begin_ns >= from_ns && window.end_ns <= to_ns &&
        window.end_ns > window.begin_ns) {
      inside.push_back(window);
    }
  }
  std::stable_sort(inside.begin(), inside.end(),
                   [](const Window& a, const Window& b) {
                     return a.steal_share < b.steal_share;
                   });
  inside.resize((inside.size() + 1) / 2);
  std::sort(inside.begin(), inside.end(), [](const Window& a, const Window& b) {
    return a.begin_ns < b.begin_ns;
  });
  return inside;
}

namespace {

/// The window (sorted, disjoint) holding time `t`, or nullptr.
const Window* window_at(const std::vector<Window>& windows, std::int64_t t) {
  auto it = std::upper_bound(
      windows.begin(), windows.end(), t,
      [](std::int64_t time, const Window& window) { return time < window.begin_ns; });
  if (it == windows.begin()) {
    return nullptr;
  }
  --it;
  return t < it->end_ns ? &*it : nullptr;
}

}  // namespace

double median_latency_ms(const std::vector<Window>& windows,
                         const std::vector<Completion>& done) {
  std::vector<double> latency;
  for (const Completion& request : done) {
    if (window_at(windows, request.done_ns) != nullptr) {
      latency.push_back(static_cast<double>(request.done_ns - request.sent_ns) / 1e6);
    }
  }
  return percentile(latency, 0.5);
}

double cells_per_cpu_s(const std::vector<Window>& windows,
                       const std::vector<Completion>& done) {
  double cells = 0.0;
  double cpu_s = 0.0;
  for (const Window& window : windows) {
    cpu_s += window.server_cpu_s;
  }
  for (const Completion& request : done) {
    if (request.done_ns <= request.sent_ns) {
      cells += window_at(windows, request.done_ns) != nullptr ? request.cells : 0.0;
      continue;
    }
    const auto lifetime = static_cast<double>(request.done_ns - request.sent_ns);
    for (const Window& window : windows) {
      const std::int64_t overlap = std::min(window.end_ns, request.done_ns) -
                                   std::max(window.begin_ns, request.sent_ns);
      if (overlap > 0) {
        cells += request.cells * static_cast<double>(overlap) / lifetime;
      }
    }
  }
  return cpu_s > 0.0 ? cells / cpu_s : 0.0;
}

int Tracer::begin(std::uint32_t request, int parent, const char* layer) {
  if (!enabled_) {
    return -1;
  }
  const std::int64_t start = now_ns();
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{request, parent, layer, start, start});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  if (span < 0) {
    return;
  }
  const std::int64_t end = now_ns();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end_ns = end;
}

void Tracer::relabel(int span, const char* layer) {
  if (span < 0) {
    return;
  }
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(span)].layer = layer;
}

std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size()) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, LayerTime> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    LayerTime& total = totals[span.layer];
    total.self_ns += static_cast<double>(span.end_ns - span.start_ns - covered);
    ++total.calls;
  }
  return totals;
}

}  // namespace perfbench
