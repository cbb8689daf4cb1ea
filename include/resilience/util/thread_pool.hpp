#pragma once

// Fixed-size thread pool with a blocking task queue and a chunked
// parallel_for whose per-call cost is one shared control block plus at most
// one queue entry per worker — never per index. This is the only parallel
// substrate in the project: the Monte Carlo runner, the pattern optimizer
// and the scenario sweep fan work out through it, keeping the rest of the
// code free of raw thread management (C++ Core Guidelines CP.*).
//
// parallel_for hands out work as ticket ranges claimed off a shared
// counter: the body is bound statically through a single type-erased
// (function pointer, context) pair per call — no per-index std::function,
// no packaged_task/future round trip — and the calling thread participates
// in the drain, so even a saturated pool makes progress and the call
// returns as soon as the iteration space is finished, not when the last
// enqueued helper gets scheduled.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace resilience::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (with a floor of one worker).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future propagates the task's exception,
  /// if any, to the caller.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool: submit after shutdown");
      }
      tasks_.emplace([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs body(i) for i in [0, count). Work is claimed in ticket ranges of
  /// `grain` indices (0 = automatic, about four tickets per worker), so
  /// uneven iteration costs rebalance dynamically. Blocks until every index
  /// is processed; rethrows the first exception thrown by `body` and skips
  /// tickets not yet claimed at that point. Must not be called from inside
  /// a pool task.
  template <typename Body>
  void parallel_for(std::size_t count, Body&& body, std::size_t grain = 0) {
    using Fn = std::remove_reference_t<Body>;
    run_chunked(
        count, grain,
        [](void* ctx, std::size_t begin, std::size_t end) {
          Fn& f = *static_cast<Fn*>(ctx);
          for (std::size_t i = begin; i < end; ++i) {
            f(i);
          }
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

  /// Ticket-range variant giving the callee whole [begin, end) ranges;
  /// useful when per-iteration dispatch would dominate (the Monte Carlo
  /// runner's RNG sub-stream batches).
  template <typename Body>
  void parallel_for_ranges(std::size_t count, Body&& body, std::size_t grain = 0) {
    using Fn = std::remove_reference_t<Body>;
    run_chunked(
        count, grain,
        [](void* ctx, std::size_t begin, std::size_t end) {
          (*static_cast<Fn*>(ctx))(begin, end);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

 private:
  /// Type-erased range body: one indirect call per claimed ticket range.
  using RangeFn = void (*)(void* ctx, std::size_t begin, std::size_t end);

  /// Shared implementation behind parallel_for/parallel_for_ranges: claims
  /// [k*grain, (k+1)*grain) tickets off a shared counter from up to
  /// thread_count() workers plus the calling thread.
  void run_chunked(std::size_t count, std::size_t grain, RangeFn fn, void* ctx);

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool, sized from hardware concurrency on first use. The
/// simulator, the optimizer and the sweep default to this so examples need
/// no plumbing.
ThreadPool& global_pool();

}  // namespace resilience::util
