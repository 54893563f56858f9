// Closed-loop query load against a running plt-serve daemon, the refresh
// writer that swaps the served blob under that load, the daemon's stats
// opcode read back as numbers, and the correctness check of served answers
// against serve::answer_query run in process.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/blob_store.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One answered (or failed) request of the measured window.
struct QuerySample {
  std::uint32_t connection = 0;
  std::uint32_t index = 0;  ///< position in that connection's request list
  int query_class = 0;
  bool ok = false;          ///< transport fine and status kOk
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  plt::serve::Response response;  ///< answer fields only (no detail text)
};

/// A reload issued by the refresh writer: blob window `window` was written
/// over the served path before `send_ns`, and served from `reply_ns` on.
struct ReloadEvent {
  int window = 0;
  std::int64_t send_ns = 0;
  std::int64_t reply_ns = 0;
  bool ok = false;
};

struct LoadResult {
  std::vector<QuerySample> samples;  ///< every request of the window
  std::vector<std::vector<plt::serve::Request>> requests;  ///< per connection
  std::vector<ReloadEvent> reloads;  ///< refresh writer only
  int initial_window = 0;  ///< blob window served when the load started
  double window_seconds = 0.0;
  /// Connections that could not be opened, and answers to no request.
  std::uint64_t transport_failures = 0;
};

/// What the refresh writer needs: the served path, the encoded windows, and
/// which window the daemon serves when the load starts.
struct RefreshPlan {
  std::string served_path;
  std::vector<const std::vector<std::uint8_t>*> window_bytes;
  int serving_window = 0;
};

/// Runs kClientConnections closed-loop clients (each keeping
/// `spec.in_flight` requests pending) against 127.0.0.1:`port` for
/// `seconds`, continuing until at least `min_samples` requests have
/// completed or `max_seconds` elapsed. Requests come from one generator
/// per connection; `refresh` (may be null) adds the blob-swapping writer.
LoadResult run_load(std::uint16_t port, const WorkloadSpec& spec,
                    std::vector<RequestGenerator>& generators, double seconds,
                    std::size_t min_samples, double max_seconds,
                    RefreshPlan* refresh);

/// Per-class request counts and latency sums from the daemon's stats
/// opcode, plus the batching and admission tallies.
struct ServerStats {
  std::uint64_t requests[kQueryClasses] = {};
  std::uint64_t latency_count[kQueryClasses] = {};
  std::uint64_t latency_sum_ns[kQueryClasses] = {};
  std::uint64_t deadline_exceeded[kQueryClasses] = {};
  std::uint64_t total_requests = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t overloaded = 0;
  std::uint32_t generation = 0;

  ServerStats minus(const ServerStats& earlier) const;
  ServerStats plus(const ServerStats& other) const;
};
ServerStats fetch_server_stats(std::uint16_t port);

/// Round trips (ms) of back-to-back kReload requests on an otherwise idle
/// daemon: at least `min_count` of them and at least `seconds` long. A
/// failed reload is recorded as kFailedLatency.
std::vector<double> timed_reloads(std::uint16_t port, std::size_t min_count,
                                  double seconds);

/// Whether two responses carry the same answer.
bool same_answer(const plt::serve::Response& a, const plt::serve::Response& b);

/// Blob windows a sample may have been answered from: the window served
/// over its whole round trip, or both when a reload overlapped it.
std::vector<int> candidate_windows(const QuerySample& sample,
                                   const std::vector<ReloadEvent>& reloads,
                                   int initial_window, int windows);

}  // namespace perfbench
