#include "host.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "stats.hpp"

namespace perfbench {

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes times;
  if (label != "cpu") return times;
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user/nice, so it is not added again).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double steal_share(const CpuTimes& start, const CpuTimes& end) {
  if (end.total <= start.total) return 0.0;
  return static_cast<double>(end.steal - start.steal) /
         static_cast<double>(end.total - start.total);
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(colon + 1);
    const auto first = model.find_first_not_of(" \t");
    return first == std::string::npos ? "" : model.substr(first);
  }
  return "unknown";
}

std::uint64_t proc_status_bytes(const std::string& pid, const char* field) {
  std::ifstream in("/proc/" + pid + "/status");
  const std::string key = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream fields(line.substr(key.size()));
    std::uint64_t kb = 0;
    fields >> kb;
    return kb * 1024;
  }
  return 0;
}

double process_cpu_seconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  std::uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double thread_cpu_seconds() {
  timespec now{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now) != 0)
    throw std::runtime_error("CLOCK_THREAD_CPUTIME_ID is not available");
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

std::uint64_t begin_peak_window() {
  malloc_trim(0);
  {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    if (!clear) throw std::runtime_error("cannot reset VmHWM via clear_refs");
  }
  return proc_status_bytes("self", "VmRSS");
}

std::uint64_t peak_growth_bytes(std::uint64_t base) {
  const std::uint64_t peak = proc_status_bytes("self", "VmHWM");
  return peak > base ? peak - base : 0;
}

Daemon::~Daemon() {
  if (pid_ > 0) stop();
}

void Daemon::start(const std::string& binary,
                   const std::vector<std::string>& args,
                   const std::string& ready_file,
                   const std::string& log_file) {
  std::filesystem::remove(ready_file);
  std::vector<std::string> argv_strings = {binary};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  argv_strings.push_back("--ready-file");
  argv_strings.push_back(ready_file);
  std::vector<char*> argv;
  for (std::string& arg : argv_strings) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    const int log = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;

  const std::int64_t deadline = now_ns() + 30'000'000'000;
  while (now_ns() < deadline) {
    std::ifstream ready(ready_file);
    unsigned port = 0;
    if (ready >> port && port != 0) {
      port_ = static_cast<std::uint16_t>(port);
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("plt-serve exited during start-up (see " +
                               log_file + ")");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop();
  throw std::runtime_error("plt-serve did not become ready within 30 s");
}

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         now_ns() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (reaped == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return false;
  }
  pid_ = -1;
  return reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace perfbench
