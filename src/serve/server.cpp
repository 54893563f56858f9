#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "core/exec_control.hpp"
#include "core/thread_context.hpp"
#include "obs/trace.hpp"
#include "serve/query_engine.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/thread_annotations.hpp"

namespace plt::serve {

namespace {

Response make_error(Opcode opcode, std::uint32_t request_id, Status status,
                    std::string detail) {
  Response response;
  response.opcode = opcode;
  response.request_id = request_id;
  response.status = status;
  response.detail = std::move(detail);
  return response;
}

/// The "serve.accept" failpoint: accept() failing with EMFILE, on demand,
/// so the refusal path is testable without exhausting the process's
/// descriptors.
bool descriptors_exhausted_injected() {
#if PLT_FAILPOINTS_ENABLED
  try {
    PLT_FAILPOINT("serve.accept");
  } catch (const InjectedFault&) {
    return true;
  }
#endif
  return false;
}

void histogram_json(std::ostringstream& out,
                    const obs::LatencyHistogram& histogram) {
  out << "\"latency\":" << histogram.to_json()
      << ",\"p50_ns\":" << histogram.percentile(0.50)
      << ",\"p99_ns\":" << histogram.percentile(0.99)
      << ",\"p999_ns\":" << histogram.percentile(0.999);
}

}  // namespace

std::string StatsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"daemon\":\"plt-serve\",\"generation\":" << generation
      << ",\"connections\":" << connections
      << ",\"disconnects\":" << disconnects
      << ",\"protocol_errors\":" << protocol_errors
      << ",\"overloaded\":" << overloaded << ",\"reloads\":" << reloads
      << ",\"classes\":{";
  bool first = true;
  for (std::size_t op = 0; op < kOpcodeCount; ++op) {
    const PerClass& c = per_class[op];
    if (c.requests == 0) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << to_string(static_cast<Opcode>(op)) << "\":{\"requests\":"
        << c.requests << ",\"errors\":" << c.errors
        << ",\"deadline_exceeded\":" << c.deadline_exceeded << ',';
    histogram_json(out, c.latency);
    out << ",\"lists_decoded\":" << c.lists_decoded
        << ",\"ids_decoded\":" << c.ids_decoded << '}';
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

namespace {

struct Connection {
  Fd fd;
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  bool close_after_flush = false;
  bool want_write = false;
};

struct PendingRequest {
  int fd = -1;
  Request request;
};

/// Flushes as much queued output as the socket accepts. Returns false when
/// the connection must be closed (peer gone, or close_after_flush with the
/// buffer drained). Discharges written bytes from the in-flight budget.
bool flush_connection(Connection& conn, std::atomic<std::size_t>& in_flight) {
  while (conn.out_pos < conn.out.size()) {
    const std::ptrdiff_t n =
        write_some(conn.fd.get(), conn.out.data() + conn.out_pos,
                   conn.out.size() - conn.out_pos);
    if (n < 0) {  // send buffer full; wait for EPOLLOUT
      conn.want_write = true;
      return true;
    }
    if (n == 0) return false;  // peer vanished
    conn.out_pos += static_cast<std::size_t>(n);
    in_flight.fetch_sub(static_cast<std::size_t>(n),
                        std::memory_order_relaxed);
  }
  conn.out.clear();
  conn.out_pos = 0;
  conn.want_write = false;
  return !conn.close_after_flush;
}

}  // namespace

struct Server::Worker {
  Server* server = nullptr;
  Fd epoll;
  Fd wake;
  std::thread thread;

  // Crossed by the acceptor thread: freshly accepted fds parked until the
  // worker adopts them at the top of its tick.
  Mutex inbox_mutex;
  std::vector<int> inbox PLT_GUARDED_BY(inbox_mutex);

  // Crossed by any worker answering a kStats request (Server::stats()
  // walks every worker's tallies).
  mutable Mutex stats_mutex;
  StatsSnapshot::PerClass per_class[kOpcodeCount] PLT_GUARDED_BY(stats_mutex);
  std::uint64_t connections PLT_GUARDED_BY(stats_mutex) = 0;
  std::uint64_t disconnects PLT_GUARDED_BY(stats_mutex) = 0;
  std::uint64_t protocol_errors PLT_GUARDED_BY(stats_mutex) = 0;
  std::uint64_t overloaded PLT_GUARDED_BY(stats_mutex) = 0;

  // Worker-thread-only: never touched off the owning worker's loop.
  std::unordered_map<int, Connection> conns;
  std::vector<PendingRequest> pending;
};

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

Server::Server(ServerOptions options)
    : options_(std::move(options)), store_(options_.blob_paths) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  store_.load_initial();
  reserve_ = Fd(::open("/dev/null", O_RDONLY | O_CLOEXEC));
  if (!reserve_.valid()) throw SocketError("open(/dev/null) failed");
  listen_ = listen_tcp(options_.port, port_);
  set_nonblocking(listen_.get());
  stopping_.store(false, std::memory_order_release);

  const unsigned threads = std::max(1u, options_.threads);
  for (unsigned i = 0; i < threads; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->server = this;
    worker->epoll = Fd(::epoll_create1(EPOLL_CLOEXEC));
    if (!worker->epoll.valid()) throw SocketError("epoll_create1 failed");
    worker->wake = Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!worker->wake.valid()) throw SocketError("eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->wake.get();
    if (::epoll_ctl(worker->epoll.get(), EPOLL_CTL_ADD, worker->wake.get(),
                    &ev) != 0)
      throw SocketError("epoll_ctl(wake) failed");
    workers_.push_back(std::move(worker));
  }
  const core::ThreadContext context;
  for (auto& worker : workers_)
    worker->thread = std::thread([this, context, w = worker.get()] {
      const core::BoundContext bound(context);
      worker_loop(*w);
    });
  acceptor_ = std::thread([this, context] {
    const core::BoundContext bound(context);
    acceptor_loop();
  });
  running_.store(true, std::memory_order_release);
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire) && !acceptor_.joinable())
    return;
  stopping_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& worker : workers_) {
    if (worker->wake.valid()) {
      const std::uint64_t one = 1;
      if (::write(worker->wake.get(), &one, sizeof(one)) < 0)
        log_warn() << "plt-serve: shutdown wake write failed: "
                   << std::strerror(errno);
    }
    if (worker->thread.joinable()) worker->thread.join();
  }
  workers_.clear();
  listen_.reset();
  reserve_.reset();
  running_.store(false, std::memory_order_release);
}

std::uint32_t Server::reload() {
  const std::uint32_t generation = store_.reload();
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return generation;
}

StatsSnapshot Server::stats() const {
  StatsSnapshot snapshot;
  for (const auto& worker : workers_) {
    MutexLock lock(worker->stats_mutex);
    for (std::size_t op = 0; op < kOpcodeCount; ++op) {
      const StatsSnapshot::PerClass& from = worker->per_class[op];
      StatsSnapshot::PerClass& to = snapshot.per_class[op];
      to.requests += from.requests;
      to.errors += from.errors;
      to.deadline_exceeded += from.deadline_exceeded;
      to.latency.merge(from.latency);
      to.lists_decoded += from.lists_decoded;
      to.ids_decoded += from.ids_decoded;
    }
    snapshot.connections += worker->connections;
    snapshot.disconnects += worker->disconnects;
    snapshot.protocol_errors += worker->protocol_errors;
    snapshot.overloaded += worker->overloaded;
  }
  snapshot.overloaded += refused_.load(std::memory_order_relaxed);
  snapshot.reloads = reloads_.load(std::memory_order_relaxed);
  if (const std::shared_ptr<const BlobSet> set = store_.snapshot())
    snapshot.generation = set->generation;
  return snapshot;
}

bool Server::refuse_one() {
  reserve_.reset();
  Fd client(::accept4(listen_.get(), nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC));
  const bool accepted = client.valid();
  if (accepted) {
    const std::vector<std::uint8_t> frame = encode_response(
        make_error(Opcode::kPing, 0, Status::kOverloaded,
                   "out of file descriptors; connection refused"));
    try {
      for (std::size_t sent = 0; sent < frame.size();) {
        const std::ptrdiff_t n = write_some(
            client.get(), frame.data() + sent, frame.size() - sent);
        if (n <= 0) break;  // send buffer full or peer gone
        sent += static_cast<std::size_t>(n);
      }
      // Read what the peer already sent (a bounded amount), so the close
      // is a FIN and not a reset that could discard the answer.
      std::uint8_t sink[4096];
      for (int reads = 0;
           reads < 16 && read_some(client.get(), sink, sizeof(sink)) > 0;
           ++reads) {
      }
    } catch (const SocketError& error) {
      log_warn() << "plt-serve: refused connection failed: " << error.what();
    }
    refused_.fetch_add(1, std::memory_order_relaxed);
  }
  client.reset();
  reserve_ = Fd(::open("/dev/null", O_RDONLY | O_CLOEXEC));
  if (!reserve_.valid())
    log_warn() << "plt-serve: could not re-open the reserve descriptor: "
               << std::strerror(errno);
  return accepted;
}

void Server::acceptor_loop() {
  bool refusing = false;  // within a burst of refusals, warned once
  while (!stopping_.load(std::memory_order_acquire)) {
    if (reload_flag_ != nullptr &&
        reload_flag_->exchange(0, std::memory_order_acq_rel) != 0) {
      try {
        const std::uint32_t generation = reload();
        log_info() << "plt-serve: reloaded blobs, generation " << generation;
      } catch (const std::exception& error) {
        log_warn() << "plt-serve: reload failed, keeping current generation: "
                   << error.what();
      }
    }
    pollfd pfd{};
    pfd.fd = listen_.get();
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    for (;;) {
      // Out of descriptors, the pending connection would stay in the
      // backlog and poll would report it again at once: answer it instead.
      bool exhausted = descriptors_exhausted_injected();
      int client = -1;
      if (!exhausted) {
        client = ::accept4(listen_.get(), nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        exhausted = client < 0 && (errno == EMFILE || errno == ENFILE);
      }
      if (exhausted) {
        if (!refuse_one()) break;
        if (!refusing) {
          log_warn() << "plt-serve: out of file descriptors; refusing "
                        "connections with OVERLOADED";
          refusing = true;
        }
        continue;
      }
      if (client < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          log_warn() << "plt-serve: accept failed: " << std::strerror(errno);
        break;
      }
      refusing = false;
      Worker& worker = *workers_[next_worker_];
      next_worker_ = (next_worker_ + 1) % workers_.size();
      {
        MutexLock lock(worker.inbox_mutex);
        worker.inbox.push_back(client);
      }
      const std::uint64_t one = 1;
      // EAGAIN means the counter is already non-zero, so the worker is
      // waking anyway; anything else is worth a diagnostic.
      if (::write(worker.wake.get(), &one, sizeof(one)) < 0 &&
          errno != EAGAIN)
        log_warn() << "plt-serve: wake write failed: " << std::strerror(errno);
    }
  }
}

void Server::worker_loop(Worker& worker) {
  std::vector<int> dead;
  epoll_event events[64];

  auto enqueue = [&](Connection& conn, const Response& response) {
    const std::vector<std::uint8_t> frame = encode_response(response);
    in_flight_bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  };

  auto update_epoll = [&](int fd, Connection& conn) {
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(worker.epoll.get(), EPOLL_CTL_MOD, fd, &ev) != 0)
      log_warn() << "plt-serve: epoll_ctl(MOD) failed: "
                 << std::strerror(errno);
  };

  auto close_connection = [&](int fd) {
    auto it = worker.conns.find(fd);
    if (it == worker.conns.end()) return;
    // Un-charge whatever output never made it out.
    const std::size_t unsent = it->second.out.size() - it->second.out_pos;
    if (unsent > 0)
      in_flight_bytes_.fetch_sub(unsent, std::memory_order_relaxed);
    if (::epoll_ctl(worker.epoll.get(), EPOLL_CTL_DEL, fd, nullptr) != 0 &&
        errno != ENOENT)
      log_warn() << "plt-serve: epoll_ctl(DEL) failed: "
                 << std::strerror(errno);
    worker.conns.erase(it);
  };

  // Answers one validated request (admin or query) and records per-class
  // stats. Admission control and the per-request deadline both live here:
  // every rejection is a typed response, never a silent drop.
  auto execute = [&](Connection& conn, const Request& request,
                     const BlobSet& set) {
    PLT_SPAN("serve-request");
    const auto started = std::chrono::steady_clock::now();
    Response response;
    QueryCounters counters;  // stays zero unless a query runs

    if (stopping_.load(std::memory_order_acquire)) {
      response = make_error(request.opcode, request.request_id,
                            Status::kShuttingDown, "server is draining");
    } else if (request.opcode == Opcode::kPing) {
      response.opcode = Opcode::kPing;
      response.request_id = request.request_id;
    } else if (request.opcode == Opcode::kStats) {
      response.opcode = Opcode::kStats;
      response.request_id = request.request_id;
      response.generation = set.generation;
      response.detail = stats().to_json();
    } else if (request.opcode == Opcode::kReload) {
      response.opcode = Opcode::kReload;
      response.request_id = request.request_id;
      try {
        response.generation = reload();
      } catch (const std::exception& error) {
        response = make_error(Opcode::kReload, request.request_id,
                              Status::kInternal,
                              std::string("reload failed: ") + error.what());
      }
    } else if (const LoadedBlob* blob = set.blob(request.blob_id);
               blob == nullptr) {
      response = make_error(request.opcode, request.request_id,
                            Status::kUnknownBlob, "blob_id not loaded");
    } else if (options_.memory_budget != 0 &&
               in_flight_bytes_.load(std::memory_order_relaxed) >
                   options_.memory_budget) {
      response = make_error(request.opcode, request.request_id,
                            Status::kOverloaded,
                            "in-flight memory budget exhausted");
      MutexLock lock(worker.stats_mutex);
      ++worker.overloaded;
    } else {
      const std::uint32_t deadline_ms = request.deadline_ms != 0
                                            ? request.deadline_ms
                                            : options_.default_deadline_ms;
      const core::MiningControl control =
          deadline_ms != 0
              ? core::MiningControl::with_deadline(
                    std::chrono::milliseconds(deadline_ms))
              : core::MiningControl();
      response = answer_query(request, *blob, control, counters);
    }

    const std::uint64_t elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    {
      MutexLock lock(worker.stats_mutex);
      StatsSnapshot::PerClass& c =
          worker.per_class[static_cast<std::size_t>(request.opcode)];
      ++c.requests;
      if (response.status != Status::kOk) ++c.errors;
      if (response.status == Status::kDeadlineExceeded) ++c.deadline_exceeded;
      c.latency.record(elapsed_ns);
      c.lists_decoded += counters.buckets_scanned;
      c.ids_decoded += counters.entries_tested;
    }
    enqueue(conn, response);
  };

  while (true) {
    const int ready = ::epoll_wait(worker.epoll.get(), events, 64, 100);
    if (stopping_.load(std::memory_order_acquire)) break;

    // Adopt newly accepted connections.
    {
      std::vector<int> adopted;
      {
        MutexLock lock(worker.inbox_mutex);
        adopted.swap(worker.inbox);
      }
      for (const int fd : adopted) {
        Connection conn;
        conn.fd = Fd(fd);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(worker.epoll.get(), EPOLL_CTL_ADD, fd, &ev) != 0)
          continue;  // conn.fd closes it on scope exit
        worker.conns.emplace(fd, std::move(conn));
        MutexLock lock(worker.stats_mutex);
        ++worker.connections;
      }
    }

    dead.clear();
    worker.pending.clear();

    for (int i = 0; i < ready; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (fd == worker.wake.get()) {
        std::uint64_t drain = 0;
        if (::read(worker.wake.get(), &drain, sizeof(drain)) < 0 &&
            errno != EAGAIN)
          log_warn() << "plt-serve: wake drain failed: "
                     << std::strerror(errno);
        continue;
      }
      auto it = worker.conns.find(fd);
      if (it == worker.conns.end()) continue;
      Connection& conn = it->second;

      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        dead.push_back(fd);
        continue;
      }
      if ((mask & EPOLLOUT) != 0) {
        if (!flush_connection(conn, in_flight_bytes_)) {
          dead.push_back(fd);
          continue;
        }
        update_epoll(fd, conn);
      }
      if ((mask & EPOLLIN) == 0) continue;

      // Drain the socket into the connection buffer.
      bool peer_closed = false;
      std::uint8_t buffer[16384];
      for (;;) {
        const std::ptrdiff_t n = read_some(fd, buffer, sizeof(buffer));
        if (n < 0) break;  // would block
        if (n == 0) {
          peer_closed = true;
          break;
        }
        conn.in.insert(conn.in.end(), buffer,
                       buffer + static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
      }

      // Parse every complete frame.
      std::size_t parsed = 0;
      bool fatal = false;
      while (!fatal) {
        std::span<const std::uint8_t> payload;
        std::size_t consumed = 0;
        const FrameResult result = try_frame(
            std::span<const std::uint8_t>(conn.in).subspan(parsed),
            options_.max_frame, payload, consumed);
        if (result == FrameResult::kNeedMore) break;
        if (result == FrameResult::kTooLarge) {
          enqueue(conn, make_error(Opcode::kPing, 0, Status::kFrameTooLarge,
                                   "declared frame length exceeds limit"));
          conn.close_after_flush = true;
          fatal = true;
          MutexLock lock(worker.stats_mutex);
          ++worker.protocol_errors;
          break;
        }
        Request request;
        const Status status = decode_request(payload, request);
        parsed += consumed;
        if (status == Status::kOk) {
          worker.pending.push_back({fd, std::move(request)});
          continue;
        }
        enqueue(conn, make_error(request.opcode, request.request_id, status,
                                 std::string("request rejected: ") +
                                     to_string(status)));
        {
          MutexLock lock(worker.stats_mutex);
          ++worker.protocol_errors;
        }
        if (status == Status::kBadMagic || status == Status::kBadVersion) {
          // Stream integrity unknown; stop parsing and drop the peer once
          // the diagnostic is flushed.
          conn.close_after_flush = true;
          fatal = true;
        }
      }
      if (parsed > 0)
        conn.in.erase(conn.in.begin(),
                      conn.in.begin() + static_cast<std::ptrdiff_t>(parsed));
      if (fatal) conn.in.clear();

      if (peer_closed) {
        if (!conn.in.empty()) {
          // Mid-request disconnect: a partial frame was abandoned.
          MutexLock lock(worker.stats_mutex);
          ++worker.disconnects;
        }
        dead.push_back(fd);
      }
    }

    // ---- execute this tick's requests, in arrival order, against one
    // BlobStore snapshot (a concurrent reload swaps in after the tick) ----
    if (!worker.pending.empty()) {
      const std::shared_ptr<const BlobSet> snapshot = store_.snapshot();
      for (const PendingRequest& item : worker.pending) {
        auto it = worker.conns.find(item.fd);
        if (it == worker.conns.end()) continue;  // died earlier this tick
        execute(it->second, item.request, *snapshot);
      }
    }

    // Flush everything with queued output.
    for (auto& [fd, conn] : worker.conns) {
      if (conn.out_pos >= conn.out.size() && !conn.close_after_flush) continue;
      if (!flush_connection(conn, in_flight_bytes_)) {
        dead.push_back(fd);
        continue;
      }
      update_epoll(fd, conn);
    }

    for (const int fd : dead) close_connection(fd);
  }

  // Shutdown: drop every connection (pending output is abandoned; clients
  // treat the close as SHUTTING_DOWN).
  std::vector<int> open;
  open.reserve(worker.conns.size());
  for (const auto& [fd, conn] : worker.conns) open.push_back(fd);
  for (const int fd : open) close_connection(fd);
}

}  // namespace plt::serve
