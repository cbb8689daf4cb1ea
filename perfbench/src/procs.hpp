#pragma once

// Server processes of a run: spawning sweep_serverd / sweep_router with
// explicit flags, readiness (port file, then a ping answered), shutdown
// (SIGTERM, bounded wait, SIGKILL), and the /proc readings the benchmark
// reports (VmHWM of each server, host steal time, server CPU time, and
// both sampled over the timed phases).

#include <sys/resource.h>
#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <csignal>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

class Process {
 public:
  /// Starts argv[0] with stdout/stderr appended to `log_path`. The child
  /// is killed if this process dies first.
  Process(const std::vector<std::string>& argv, const std::string& log_path);
  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// False once the child has exited (reaped).
  [[nodiscard]] bool alive();
  /// `signal`, up to `timeout_ms` for the exit, then SIGKILL; always
  /// reaps. Returns the exit status as waitpid reports it (-1 if never
  /// started).
  int stop(int timeout_ms, int signal = SIGTERM);
  /// User + system CPU time of the process and all its threads so far, s
  /// (exact once reaped). The kernel accounts time the hypervisor stole
  /// as steal, not here.
  [[nodiscard]] double cpu_seconds();

 private:
  /// wait4(): true once the child has been reaped (status and usage kept).
  bool reap(int options);

  pid_t pid_ = -1;
  bool reaped_ = false;
  int status_ = -1;
  rusage usage_{};
};

/// The server processes of one workload and the port clients use.
struct Fleet {
  std::vector<std::unique_ptr<Process>> shards;  ///< router-warm only
  std::unique_ptr<Process> front;  ///< the daemon, or the router
  std::uint16_t port = 0;          ///< where the generator connects
  std::vector<std::uint16_t> shard_ports;
  std::vector<std::string> flags;  ///< every server command line, for the report

  /// Stops every process (front first) with `signal`; safe to call twice.
  void stop(int signal = SIGTERM);
  ~Fleet() { stop(); }
  /// Sum of VmHWM over every live server process, MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// CPU time the server processes have used so far, s (see Process).
  [[nodiscard]] double cpu_seconds() const;
  /// Every server process id, front first.
  [[nodiscard]] std::vector<pid_t> pids() const;
};

/// Starts the processes `plan` calls for and waits until each answers a
/// ping; nullptr (with `error`) if one does not within the timeout.
[[nodiscard]] std::unique_ptr<Fleet> start_fleet(const ServerPlan& plan,
                                                 const std::string& run_dir,
                                                 std::string* error);

/// Host CPU time so far (/proc/stat, jiffies summed over CPUs): time the
/// CPUs ran something, and time they wanted to run but the hypervisor
/// gave to another tenant (steal).
struct CpuTimes {
  std::uint64_t busy = 0;   ///< user + nice + system + irq + softirq
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTimes cpu_times();

/// User + system CPU time of live process `pid` and its threads, s.
[[nodiscard]] double proc_cpu_seconds(pid_t pid);

/// Reads the host's CPU times and the summed CPU time of `pids` every
/// `period_ms`, on a thread of its own, from construction until stop().
/// The timed phases are cut into windows between consecutive readings.
class CpuSampler {
 public:
  CpuSampler(std::vector<pid_t> pids, int period_ms);
  ~CpuSampler();
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  /// Takes a last reading, joins the thread, and returns the windows
  /// between consecutive readings.
  std::vector<Window> stop();

 private:
  struct Reading {
    std::int64_t t_ns = 0;
    CpuTimes host;
    double server_cpu_s = 0.0;
  };
  Reading read() const;

  std::vector<pid_t> pids_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<Reading> readings_;
  std::thread thread_;
};

}  // namespace perfbench
