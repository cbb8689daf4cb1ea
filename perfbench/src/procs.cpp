#include "procs.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "loadgen.hpp"

#ifndef PERFBENCH_SERVERD
#define PERFBENCH_SERVERD "sweep_serverd"
#endif
#ifndef PERFBENCH_ROUTER
#define PERFBENCH_ROUTER "sweep_router"
#endif

namespace perfbench {

namespace {

constexpr int kReadyTimeoutMs = 20000;

void pause_briefly() { std::this_thread::sleep_for(std::chrono::microseconds(200)); }

/// Polls for the port file the server writes once bound; 0 on timeout
/// or when the process exits first.
std::uint16_t wait_port_file(const std::string& path, Process& process) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kReadyTimeoutMs);
  while (std::chrono::steady_clock::now() < deadline && process.alive()) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0 && port < 65536) {
      return static_cast<std::uint16_t>(port);
    }
    pause_briefly();
  }
  return 0;
}

bool answers_ping(std::uint16_t port, std::string* error) {
  const std::vector<std::string> answer =
      transact(port, {R"({"type":"ping","id":"ready"})"}, kReadyTimeoutMs, error);
  if (answer.size() == 1 && answer[0] == R"({"type":"pong","request":"ready"})") {
    return true;
  }
  if (error->empty()) {
    *error = "unexpected ping answer on port " + std::to_string(port);
  }
  return false;
}

std::unique_ptr<Process> spawn_ready(std::vector<std::string> argv,
                                     const std::string& run_dir,
                                     const std::string& name,
                                     std::vector<std::string>& flags,
                                     std::uint16_t* port, std::string* error) {
  const std::string port_file = run_dir + "/" + name + ".port";
  ::unlink(port_file.c_str());
  argv.push_back("--port-file=" + port_file);
  std::string joined;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    if (argv[i].rfind("--port-file", 0) != 0) {
      joined += (joined.empty() ? "" : " ") + argv[i];
    }
  }
  flags.push_back(name + ": " + joined);
  auto process = std::make_unique<Process>(argv, run_dir + "/" + name + ".log");
  *port = wait_port_file(port_file, *process);
  if (*port == 0) {
    *error = name + " did not come up (see " + run_dir + "/" + name + ".log)";
    return nullptr;
  }
  if (!answers_ping(*port, error)) {
    return nullptr;
  }
  return process;
}

/// VmHWM of `pid` in MiB; 0 when unreadable.
double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

Process::Process(const std::vector<std::string>& argv,
                 const std::string& log_path) {
  // Everything the child needs is prepared before fork(): between fork
  // and exec it may only make async-signal-safe calls (the reference
  // service's pool threads may hold the allocator's locks).
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(127);
    }
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
}

Process::~Process() { stop(2000); }

bool Process::reap(int options) {
  if (pid_ <= 0 || reaped_) {
    return reaped_;
  }
  if (::wait4(pid_, &status_, options, &usage_) == pid_) {
    reaped_ = true;
  }
  return reaped_;
}

bool Process::alive() { return pid_ > 0 && !reap(WNOHANG); }

int Process::stop(int timeout_ms, int signal) {
  if (pid_ <= 0) {
    return -1;
  }
  if (alive()) {
    ::kill(pid_, signal);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (alive() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (alive()) {
      ::kill(pid_, SIGKILL);
      reap(0);
    }
  }
  return status_;
}

double Process::cpu_seconds() {
  if (reap(WNOHANG)) {
    auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage_.ru_utime) + seconds(usage_.ru_stime);
  }
  return proc_cpu_seconds(pid_);
}

double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  std::getline(in, text);
  // utime and stime are fields 14 and 15; the command name (field 2) is
  // parenthesised and may hold spaces, so count from its closing ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) {
    return 0.0;
  }
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) {
      ticks += std::strtod(field.c_str(), nullptr);
    }
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

CpuSampler::CpuSampler(std::vector<pid_t> pids, int period_ms)
    : pids_(std::move(pids)) {
  readings_.push_back(read());
  thread_ = std::thread([this, period_ms] {
    std::unique_lock lock(mutex_);
    while (!wake_.wait_for(lock, std::chrono::milliseconds(period_ms),
                           [this] { return stopping_; })) {
      lock.unlock();
      const Reading reading = read();
      lock.lock();
      readings_.push_back(reading);
    }
  });
}

CpuSampler::~CpuSampler() { (void)stop(); }

std::vector<Window> CpuSampler::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
    readings_.push_back(read());
  }
  std::vector<Window> windows;
  for (std::size_t i = 1; i < readings_.size(); ++i) {
    const Reading& from = readings_[i - 1];
    const Reading& to = readings_[i];
    const auto steal = static_cast<double>(to.host.steal - from.host.steal);
    const auto ran = static_cast<double>(to.host.busy - from.host.busy);
    windows.push_back(Window{from.t_ns, to.t_ns,
                             steal + ran > 0.0 ? steal / (steal + ran) : 0.0,
                             to.server_cpu_s - from.server_cpu_s});
  }
  return windows;
}

CpuSampler::Reading CpuSampler::read() const {
  Reading reading;
  reading.t_ns = now_ns();
  reading.host = cpu_times();
  for (pid_t pid : pids_) {
    reading.server_cpu_s += proc_cpu_seconds(pid);
  }
  return reading;
}

void Fleet::stop(int signal) {
  if (front) {
    front->stop(5000, signal);
  }
  for (auto& shard : shards) {
    shard->stop(5000, signal);
  }
}

double Fleet::peak_rss_mb() const {
  double total = front ? vm_hwm_mb(front->pid()) : 0.0;
  for (const auto& shard : shards) {
    total += vm_hwm_mb(shard->pid());
  }
  return total;
}

double Fleet::cpu_seconds() const {
  double total = front ? front->cpu_seconds() : 0.0;
  for (const auto& shard : shards) {
    total += shard->cpu_seconds();
  }
  return total;
}

std::vector<pid_t> Fleet::pids() const {
  std::vector<pid_t> all;
  if (front) {
    all.push_back(front->pid());
  }
  for (const auto& shard : shards) {
    all.push_back(shard->pid());
  }
  return all;
}

std::unique_ptr<Fleet> start_fleet(const ServerPlan& plan,
                                   const std::string& run_dir,
                                   std::string* error) {
  auto fleet = std::make_unique<Fleet>();
  // The daemon counts every dispatched request's text into a connection's
  // backlog bytes and never takes it out, and stops reading a connection
  // once that count reaches half of --write-buf-limit: with the default
  // 16 MiB, after about 80k warm requests on one connection (README.md,
  // "Backlog-bytes wedge"). 1 GiB puts that beyond any run.
  auto daemon_args = [&](int port) {
    return std::vector<std::string>{
        PERFBENCH_SERVERD,
        "--port=" + std::to_string(port),
        "--threads=" + std::to_string(plan.threads),
        "--request-workers=" + std::to_string(plan.request_workers),
        "--cache-capacity=" + std::to_string(plan.cache_capacity),
        "--max-pipeline-depth=0", "--write-buf-limit=1073741824",
        "--drain-timeout-ms=2000"};
  };
  if (plan.shards == 0) {
    fleet->front = spawn_ready(daemon_args(0), run_dir, "sweep_serverd",
                               fleet->flags, &fleet->port, error);
    return fleet->front ? std::move(fleet) : nullptr;
  }
  std::string shard_list;
  for (int i = 0; i < plan.shards; ++i) {
    std::uint16_t port = 0;
    auto shard = spawn_ready(daemon_args(kShardBasePort + i), run_dir,
                             std::string("shard").append(std::to_string(i)), fleet->flags, &port,
                             error);
    if (!shard) {
      return nullptr;
    }
    fleet->shards.push_back(std::move(shard));
    fleet->shard_ports.push_back(port);
    shard_list += i == 0 ? "127.0.0.1:" : ",127.0.0.1:";
    shard_list += std::to_string(port);
  }
  fleet->front = spawn_ready(
      {PERFBENCH_ROUTER, "--port=0", "--shards=" + shard_list,
       "--request-workers=" + std::to_string(plan.router_workers),
       "--probe-interval-ms=0", "--max-pipeline-depth=0",
       "--drain-timeout-ms=2000"},
      run_dir, "sweep_router", fleet->flags, &fleet->port, error);
  return fleet->front ? std::move(fleet) : nullptr;
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};  // user nice system idle iowait irq softirq steal
  CpuTimes times;
  if (in >> cpu && cpu == "cpu") {
    for (std::uint64_t& value : field) {
      in >> value;
    }
    times.busy = field[0] + field[1] + field[2] + field[5] + field[6];
    times.steal = field[7];
  }
  return times;
}

}  // namespace perfbench
