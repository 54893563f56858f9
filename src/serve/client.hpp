// Blocking client for the plt-serve protocol — the test/bench/plt-query
// counterpart of the daemon's nonblocking path. One connection, one
// outstanding request at a time (call() writes a frame and reads frames
// until the response with the matching request_id arrives, skipping any
// response to a request that send_raw() pipelined earlier). send_raw()
// bypasses encoding entirely so the fuzz suite can put arbitrary bytes on
// the wire.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/socket_io.hpp"

namespace plt::serve {

class QueryClient {
 public:
  /// Connects to 127.0.0.1:`port`; throws SocketError on failure.
  explicit QueryClient(std::uint16_t port);

  /// Sends `request` and blocks for its response (matched by request_id).
  /// Returns nullopt when the server closes the connection instead of
  /// answering (shutdown, or a stream-level error already reported on an
  /// earlier frame). Throws SocketError/runtime_error on transport or
  /// malformed-response failures.
  std::optional<Response> call(const Request& request);

  // Typed conveniences; each uses the next auto-assigned request id.
  Count support(std::uint16_t blob_id, std::span<const Rank> ranks,
                std::uint32_t deadline_ms = 0);
  Response membership(std::uint16_t blob_id, std::span<const Rank> ranks);
  std::vector<TopEntry> top_k(std::uint16_t blob_id, std::uint32_t k);
  Response rule(std::uint16_t blob_id, std::span<const Rank> antecedent,
                Rank consequent);
  bool ping();
  /// The admin stats document (JSON) and serving generation.
  Response stats();
  /// Asks the daemon to hot-swap its blobs; returns the new generation.
  Response reload();

  /// Writes raw bytes as-is (no framing added) — the fuzz seam.
  void send_raw(std::span<const std::uint8_t> bytes);

  /// Reads one complete frame and decodes it as a response. Returns nullopt
  /// on clean EOF at a frame boundary; throws on a malformed response or a
  /// mid-frame close.
  std::optional<Response> read_response();

  /// Half-closes the write side so the server sees EOF while the read side
  /// stays open for any queued responses.
  void shutdown_write();

  int fd() const { return fd_.get(); }

 private:
  Fd fd_;
  std::uint32_t next_id_ = 1;
};

}  // namespace plt::serve
