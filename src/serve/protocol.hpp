// plt-serve wire protocol (DESIGN.md S27): length-prefixed binary frames
// over TCP, versioned, with typed responses and structured error codes.
//
// Every frame is `u32le length | payload` where `length` counts the payload
// bytes only. Request payloads start with a fixed 16-byte header:
//
//   u32le magic "PLTQ" | u8 version | u8 opcode | u16le blob_id |
//   u32le request_id   | u32le deadline_ms
//
// followed by an opcode-specific body (itemsets are `u16le count` then
// `count` strictly-increasing u32le ranks). Response payloads start with a
// fixed 12-byte header:
//
//   u32le magic "PLTR" | u8 version | u8 opcode | u8 status | u8 zero |
//   u32le request_id
//
// followed by a typed body on kOk, or `u32le detail_len | detail` (ASCII
// diagnostic) on any error status. Clients correlate responses by
// request_id: the server answers a frame it rejects while parsing at once,
// ahead of earlier well-formed requests still waiting for their tick's
// execution pass.
//
// Queries are expressed in *rank* space (Definition 4.1.1): the PLT3 blob
// stores position vectors over ranks 1..max_rank and carries no item map,
// so translating original item ids to ranks is the client's job (the shard
// manifest or the mining run that produced the blob holds the mapping).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace plt::serve {

inline constexpr std::uint32_t kRequestMagic = 0x51544C50u;   // "PLTQ" LE
inline constexpr std::uint32_t kResponseMagic = 0x52544C50u;  // "PLTR" LE
inline constexpr std::uint8_t kProtocolVersion = 1;

/// Hard cap on itemset length in a request body; anything longer is
/// kMalformedBody (position vectors never get near this).
inline constexpr std::size_t kMaxQueryItems = 256;

/// Default cap on a single frame's payload; a declared length above the
/// server's limit is kFrameTooLarge and the connection is closed (the
/// stream cannot be resynchronized without buffering the oversized frame).
inline constexpr std::uint32_t kDefaultMaxFrame = 1u << 20;

enum class Opcode : std::uint8_t {
  kPing = 0,        ///< liveness probe; empty body both ways
  kSupport = 1,     ///< itemset -> support (rank-list intersection)
  kMembership = 2,  ///< itemset -> stored exactly as a vector? + its freq
  kTopK = 3,        ///< k -> k most supported ranks (cached at blob load)
  kRule = 4,        ///< antecedent + consequent -> supports + confidence
  kStats = 5,       ///< admin: serving stats + plt-trace-v1 JSON dump
  kReload = 6,      ///< admin: atomically reload the configured blobs
};
inline constexpr std::size_t kOpcodeCount = 7;

const char* to_string(Opcode opcode);
bool known_opcode(std::uint8_t raw);

/// Structured error codes. Stream-level errors (kBadMagic, kBadVersion,
/// kFrameTooLarge) additionally close the connection after the response is
/// flushed; request-level errors leave the connection usable.
enum class Status : std::uint8_t {
  kOk = 0,
  kBadMagic = 1,          ///< payload does not start with "PLTQ"
  kBadVersion = 2,        ///< protocol version not understood
  kBadOpcode = 3,         ///< opcode byte not in the table above
  kMalformedBody = 4,     ///< body truncated / ranks not strictly increasing
  kFrameTooLarge = 5,     ///< declared length exceeds the server limit
  kUnknownBlob = 6,       ///< blob_id not loaded
  kDeadlineExceeded = 7,  ///< per-request MiningControl deadline tripped
  kOverloaded = 8,        ///< global in-flight memory budget exhausted
  kShuttingDown = 9,      ///< server is draining
  kInternal = 10,         ///< unexpected server-side failure
};

const char* to_string(Status status);

struct TopEntry {
  Rank rank = 0;
  Count support = 0;
};

/// Decoded request. `ranks` is the itemset for kSupport/kMembership and the
/// antecedent for kRule (strictly increasing, possibly empty for kSupport /
/// kRule where the empty set means "all transactions").
struct Request {
  Opcode opcode = Opcode::kPing;
  std::uint16_t blob_id = 0;
  std::uint32_t request_id = 0;
  std::uint32_t deadline_ms = 0;  ///< 0 = use the server default
  std::vector<Rank> ranks;
  Rank consequent = 0;  ///< kRule
  std::uint32_t k = 0;  ///< kTopK
};

struct Response {
  Opcode opcode = Opcode::kPing;
  Status status = Status::kOk;
  std::uint32_t request_id = 0;
  Count support = 0;             ///< kSupport; kMembership freq; kRule a∪c
  Count antecedent_support = 0;  ///< kRule
  std::uint64_t confidence_ppm = 0;  ///< kRule: support_ac * 1e6 / support_a
  bool member = false;               ///< kMembership
  std::vector<TopEntry> top;         ///< kTopK
  std::uint32_t generation = 0;      ///< kReload / kStats: blob generation
  std::string detail;  ///< error diagnostic, or the kStats JSON document
};

/// Serializes a request/response into a complete frame (length prefix
/// included), ready to write to a socket.
std::vector<std::uint8_t> encode_request(const Request& request);
std::vector<std::uint8_t> encode_response(const Response& response);

/// Result of scanning a receive buffer for one complete frame.
enum class FrameResult {
  kNeedMore,     ///< buffer holds a prefix of a frame; keep reading
  kFrame,        ///< `payload` and `consumed` are set
  kTooLarge,     ///< declared length exceeds `max_frame`
};

/// Extracts the first complete frame from `buffer`. On kFrame, `payload`
/// aliases `buffer` and `consumed` is the total bytes (prefix + payload) to
/// drop from the front.
FrameResult try_frame(std::span<const std::uint8_t> buffer,
                      std::uint32_t max_frame,
                      std::span<const std::uint8_t>& payload,
                      std::size_t& consumed);

/// Decodes a request payload (no length prefix). Returns kOk and fills
/// `out`, or the structured error describing the first problem found.
/// `out.request_id` is filled whenever the header was readable so error
/// responses can still be correlated.
Status decode_request(std::span<const std::uint8_t> payload, Request& out);

/// Decodes a response payload (no length prefix). Returns false on a frame
/// that is not a well-formed response (client-side use; the server is
/// trusted, so this is a sanity check rather than a typed-error channel).
bool decode_response(std::span<const std::uint8_t> payload, Response& out);

}  // namespace plt::serve
