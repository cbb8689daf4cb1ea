#pragma once

// The benchmark's arithmetic: percentiles over latency samples, the
// quieter-half windows the gated figures come from, and the
// spans of the traced run with the per-layer self time computed from
// them (Dapper-style: a span's self time is its duration minus the part
// of it that its child spans cover).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile `q` in [0, 1] of `values` by linear interpolation between
/// order statistics; 0 for an empty sample. Sorts `values`.
[[nodiscard]] double percentile(std::vector<double>& values, double q);

/// Throughput as the median over windows: the completions (at increasing
/// times `done_s`, each worth `weight` units of work) are cut into
/// `windows` consecutive groups of equal count, and each group's rate is
/// its work over the time since the previous group ended. A host stall
/// then spoils the windows it falls in, not the whole figure; 0 when
/// there are fewer completions than windows.
[[nodiscard]] double windowed_rate(const std::vector<double>& done_s,
                                   const std::vector<double>& weight,
                                   std::size_t windows);

/// Median of the per-window medians of `values` (in completion order,
/// cut into `windows` groups of equal count): like the throughputs, a
/// latency figure that a stall in a minority of windows leaves alone. The
/// plain median when there are fewer values than windows.
[[nodiscard]] double windowed_median(const std::vector<double>& values,
                                     std::size_t windows);

/// A stretch of a timed phase between two CPU readings.
struct Window {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  double steal_share = 0.0;   ///< of the CPU time the host wanted, stolen
  double server_cpu_s = 0.0;  ///< CPU time the servers used in it
};

/// The gated figures of a timed phase come from its quieter half: of the
/// windows lying wholly inside [from_ns, to_ns], the half (rounded up)
/// with the least host steal, ties to the earlier. Another tenant's load
/// comes in bursts of a second or less; the windows it hits are dropped
/// instead of stretching the figure. Empty when no window fits.
[[nodiscard]] std::vector<Window> quieter_half(const std::vector<Window>& windows,
                                               std::int64_t from_ns,
                                               std::int64_t to_ns);

/// One completed request: when it was sent, when its last line arrived,
/// and how many cells it carried.
struct Completion {
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  double cells = 0.0;
};

/// Median latency, ms, of the requests completing inside `windows`; 0
/// when none does.
[[nodiscard]] double median_latency_ms(const std::vector<Window>& windows,
                                       const std::vector<Completion>& done);

/// Cells per server CPU second inside `windows`. Each request's cells
/// are spread evenly over its lifetime, so a request is credited to the
/// windows it ran in, in proportion; 0 without CPU time.
[[nodiscard]] double cells_per_cpu_s(const std::vector<Window>& windows,
                                     const std::vector<Completion>& done);

/// Monotonic nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t request = 0;  ///< spans of one request share this id
  std::int32_t parent = -1;   ///< index of the enclosing span; -1 = root
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder. Disabled, begin() returns -1 and records
/// nothing, which is how the traced replay measures its own overhead.
/// Thread-safe: cell sinks record serialization spans from pool threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int begin(std::uint32_t request, int parent, const char* layer);
  void end(int span);
  /// Re-labels a finished span (the submit span becomes the cache or the
  /// engine once its SubmitResult says which served it).
  void relabel(int span, const char* layer);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool enabled_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t request, int parent, const char* layer)
      : tracer_(tracer), index_(tracer.begin(request, parent, layer)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// Per-layer totals over a set of spans.
struct LayerTime {
  double self_ns = 0.0;   ///< duration minus child coverage, summed
  std::size_t calls = 0;  ///< spans of this layer
};

/// Self time of every span, grouped by layer name. Child intervals are
/// clipped to their parent and merged before subtraction, so overlapping
/// children are never double-counted.
[[nodiscard]] std::map<std::string, LayerTime> self_times(
    const std::vector<Span>& spans);

}  // namespace perfbench
