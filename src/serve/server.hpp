// plt-serve daemon core (DESIGN.md S27): a thread-per-core epoll server
// over PLT3 blobs indexed at load. No framework — one acceptor thread hands
// accepted connections round-robin to N worker loops; each worker owns its
// connections outright (epoll set, buffers, stats), so the only shared
// state on the request path is the BlobStore snapshot (one shared_ptr copy
// per tick), the global in-flight byte budget (one atomic), and the
// per-worker stats mutex the admin endpoint takes when merging.
//
// Event loop: each tick reads every ready socket, decodes all complete
// frames into a pending list, then executes those requests in arrival
// order against one BlobStore snapshot before flushing any response, so a
// reload that lands mid-tick takes effect at the next tick. A frame
// rejected while parsing is answered at once, ahead of the tick's executed
// requests — clients correlate responses by request_id.
//
// Admission control: per-request MiningControl deadlines (request header
// or server default) bound query time, and a global in-flight memory budget
// bounds buffered request+response bytes — requests over budget get the
// typed OVERLOADED error instead of queueing without bound. Out of file
// descriptors, the acceptor spends a reserved one to answer a pending
// connection with OVERLOADED and close it, instead of leaving it in the
// backlog.
//
// Hot swap: reload() (admin opcode, or SIGHUP via the flag plt-serve
// registers) builds the next BlobSet off to the side and swaps one
// shared_ptr; in-flight queries drain on the old generation, which is
// freed when the last snapshot holder drops it. A failed reload keeps
// serving the old generation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "serve/blob_store.hpp"
#include "serve/protocol.hpp"
#include "serve/socket_io.hpp"

namespace plt::serve {

struct ServerOptions {
  std::vector<std::string> blob_paths;
  std::uint16_t port = 0;  ///< 0 = ephemeral (port() reports the binding)
  unsigned threads = 1;    ///< worker event loops (thread-per-core)
  std::uint32_t default_deadline_ms = 0;  ///< 0 = no deadline
  /// Global in-flight byte budget (buffered requests + queued responses).
  /// 0 = unlimited.
  std::size_t memory_budget = std::size_t{64} << 20;
  std::uint32_t max_frame = kDefaultMaxFrame;
};

/// Point-in-time serving stats: per-request-class counts, latency
/// histograms and query work plus connection/protocol tallies. Histograms
/// merge deterministically (per-bucket addition), so the snapshot is the
/// sum over workers no matter how work was distributed.
struct StatsSnapshot {
  struct PerClass {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;  ///< responses with status != kOk
    std::uint64_t deadline_exceeded = 0;
    obs::LatencyHistogram latency;
    /// The query engine's work for these requests (QueryCounters): rank
    /// lists decoded, and the entry ids read from them.
    std::uint64_t lists_decoded = 0;
    std::uint64_t ids_decoded = 0;
  };
  PerClass per_class[kOpcodeCount];
  std::uint64_t connections = 0;
  std::uint64_t disconnects = 0;       ///< peer closed mid-frame
  std::uint64_t protocol_errors = 0;   ///< bad magic/version/oversized/...
  /// Admissions refused over budget, plus connections refused at accept
  /// when the process ran out of file descriptors.
  std::uint64_t overloaded = 0;
  std::uint64_t reloads = 0;
  std::uint32_t generation = 0;

  /// The admin JSON document (also returned by the kStats opcode): one
  /// object with the connection tallies and, per class, its counters,
  /// latency histogram and query work.
  std::string to_json() const;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads every blob (throws on a missing/corrupt one), binds the port
  /// (throws SocketError on EADDRINUSE), and starts the acceptor + worker
  /// threads, which bind the calling thread's core::ThreadContext (they
  /// record into its trace session for as long as they run).
  void start();

  /// Drains and joins every thread; idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  /// Atomic blob hot-swap; returns the new generation. Thread-safe; also
  /// reachable through the kReload admin opcode. Throws on load failure
  /// (old generation keeps serving).
  std::uint32_t reload();

  /// Polled by the acceptor loop (~10 Hz): when the pointed-to flag is
  /// nonzero it is cleared and a reload runs — the SIGHUP hook, kept
  /// signal-safe because the handler only sets the atomic. Call it before
  /// start(): the acceptor thread reads the pointer without a lock.
  void watch_reload_flag(std::atomic<int>* flag) { reload_flag_ = flag; }

  StatsSnapshot stats() const;
  std::string stats_json() const { return stats().to_json(); }

 private:
  struct Worker;
  friend struct Worker;

  void acceptor_loop();
  /// The EMFILE/ENFILE answer: frees the reserve fd, accepts one pending
  /// connection, writes it a typed OVERLOADED frame and closes it, then
  /// re-opens the reserve. Returns false when nothing was pending.
  bool refuse_one();
  void worker_loop(Worker& worker);

  ServerOptions options_;
  BlobStore store_;  // generation swap guarded inside (see blob_store.hpp)
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int>* reload_flag_ = nullptr;  ///< written by signal handler
  /// Global budget accounting: charged on enqueue, discharged on flush,
  /// by every worker thread — relaxed ordering, the budget is advisory.
  std::atomic<std::size_t> in_flight_bytes_{0};
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> refused_{0};  ///< refuse_one() answers
  std::uint16_t port_ = 0;  ///< written once in start(), before threads
  Fd listen_;
  /// Held for the daemon's life so that, out of descriptors, the acceptor
  /// can still take a pending connection and answer it.
  Fd reserve_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
  std::size_t next_worker_ = 0;  ///< acceptor-thread-only round-robin state
};

}  // namespace plt::serve
