// Host facts and process plumbing: what a result is stamped with, the
// memory readings the memory metrics come from, and the plt-serve daemon
// the serve path runs as a real child process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Cumulative CPU time of the whole host from the "cpu" line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();

/// Share of host CPU time stolen by the hypervisor between two readings.
double steal_share(const CpuTimes& start, const CpuTimes& end);

/// Logical CPUs this process may run on.
unsigned online_cpus();

/// "model name" of the first processor in /proc/cpuinfo.
std::string cpu_model();

/// A "VmRSS"/"VmHWM"-style field of /proc/<pid>/status in bytes ("self"
/// for this process); 0 when unreadable.
std::uint64_t proc_status_bytes(const std::string& pid, const char* field);

/// User plus system CPU time consumed so far by process `pid` (seconds).
double process_cpu_seconds(int pid);

/// CPU time consumed so far by the calling thread (seconds). A guest kernel
/// with paravirtual steal accounting leaves out the time its vCPU was lent
/// to another guest.
double thread_cpu_seconds();

/// Starts a per-phase peak-memory window: returns freed heap to the kernel,
/// resets this process's VmHWM through /proc/self/clear_refs, and returns
/// the resident size the window starts from. Throws when the reset is not
/// supported, since a whole-process peak would hide which phase set it.
std::uint64_t begin_peak_window();

/// Peak resident growth since begin_peak_window() returned `base`.
std::uint64_t peak_growth_bytes(std::uint64_t base);

/// A plt-serve daemon child process. start() returns once the daemon has
/// written its ready file; stop() sends SIGTERM, waits for the exit and
/// reports whether the daemon drained and exited 0.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& ready_file, const std::string& log_file);
  bool stop();
  bool running() const { return pid_ > 0; }
  int pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  int pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Removes `path` and everything under it; no error when absent.
void remove_tree(const std::string& path);

}  // namespace perfbench
