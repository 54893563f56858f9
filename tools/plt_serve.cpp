// plt-serve — concurrent query daemon over PLT3 blobs indexed at load
// (DESIGN.md S27, EXPERIMENTS.md E22).
//
//   plt-serve BLOB... [--port N] [--threads N] [--deadline-ms D]
//             [--memory-budget-mb M] [--ready-file PATH]
//
// Positional blobs are assigned blob_id 0, 1, ... in order. --port 0 (the
// default) binds an ephemeral port; --ready-file writes "<port>\n" once
// the daemon is accepting, which is how scripts (and the CLI checks) learn
// the binding without racing the startup. SIGHUP hot-swaps the blobs from
// the same paths; SIGINT/SIGTERM drain and exit 0.
//
// Flags are strict: an unknown flag is a usage error (exit 2), never
// silently ignored — a typo'd --deadline-msec must not run undeadlined.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "serve/server.hpp"
#include "util/args.hpp"

namespace {

using namespace plt;

std::atomic<int> g_reload{0};
std::atomic<int> g_stop{0};

void on_signal(int sig) {
  if (sig == SIGHUP)
    g_reload.store(1, std::memory_order_release);
  else
    g_stop.store(1, std::memory_order_release);
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " BLOB... [--port N] [--threads N]\n"
            << "  [--deadline-ms D] [--memory-budget-mb M] [--max-frame B]\n"
            << "  [--ready-file PATH]\n"
            << "serves support/membership/top-k/rule queries over the\n"
            << "listed PLT3 blobs (blob_id = position). SIGHUP reloads.\n";
  return 2;
}

const char* const kKnownFlags[] = {"port",          "threads",
                                   "deadline-ms",   "memory-budget-mb",
                                   "max-frame",     "ready-file"};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (const std::string key = args.first_unknown(kKnownFlags);
      !key.empty()) {
    std::cerr << "error: unknown flag --" << key << '\n';
    return usage(argv[0]);
  }
  if (args.positional().empty()) return usage(argv[0]);

  serve::ServerOptions options;
  options.blob_paths = args.positional();
  options.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  options.threads = static_cast<unsigned>(args.get_int("threads", 1));
  options.default_deadline_ms =
      static_cast<std::uint32_t>(args.get_int("deadline-ms", 0));
  options.memory_budget =
      static_cast<std::size_t>(args.get_int("memory-budget-mb", 64)) << 20;
  options.max_frame = static_cast<std::uint32_t>(
      args.get_int("max-frame", serve::kDefaultMaxFrame));

  serve::Server server(std::move(options));
  // Before start(): the acceptor thread reads the flag pointer.
  server.watch_reload_flag(&g_reload);
  try {
    server.start();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }

  struct sigaction action {};
  action.sa_handler = on_signal;
  ::sigaction(SIGHUP, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  std::cerr << "plt-serve: listening on 127.0.0.1:" << server.port() << " ("
            << args.positional().size() << " blob(s))\n";

  if (args.has("ready-file")) {
    // tmp + rename so a watcher never reads a half-written port number.
    const std::string path = args.get("ready-file", "");
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << server.port() << '\n';
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::cerr << "error: cannot write ready file " << path << '\n';
      server.stop();
      return 1;
    }
  }

  while (g_stop.load(std::memory_order_acquire) == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.stop();
  std::cerr << "plt-serve: drained\n";
  return 0;
}
