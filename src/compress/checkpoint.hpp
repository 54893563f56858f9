// Rank-granular checkpoint log for out-of-core mining. The OOC miner walks
// ranks max_rank..1; after a rank completes (its conditional subtree fully
// mined), one record with every itemset that rank emitted is appended and
// flushed. A crash therefore loses at most the in-flight rank: on resume
// the log replays the recorded emissions verbatim and mining continues
// from the first unrecorded rank, producing output byte-identical to an
// uninterrupted run.
//
// In memory a record's itemsets are the rank's FrequentItemsets block: the
// miner hands over the block it mined into, and a parsed record holds one
// root record per itemset. Either way the bytes below list each itemset in
// full and ascending, so the encoding is the same for both.
//
// Layout ("PLTK"):
//   "PLTK" | u32le blob_crc | varint min_support | varint max_rank |
//   u32le CRC32C(header bytes after magic)
//   record: varint rank | varint itemset_count |
//           per itemset: varint item_count (>= 1), item varints (each
//           <= UINT32_MAX), varint support |
//           u32le CRC32C(record bytes)
// The header binds the log to one (blob, min_support) pair via the CRC32C
// of the whole blob, so a stale log can never replay into the wrong mine.
// A torn or corrupted trailing record fails its CRC, or its itemset
// checks, and is dropped; its rank is simply re-mined.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/itemset_collector.hpp"
#include "util/common.hpp"

namespace plt::compress {

/// One completed rank: every itemset it emitted, in emission order.
struct CheckpointRecord {
  Rank rank = 0;
  core::FrequentItemsets itemsets;
};

/// Everything recovered from a log: records in written (descending-rank)
/// order.
struct CheckpointLog {
  std::vector<CheckpointRecord> records;
};

/// Reads the log at `path` if it exists and its header matches the given
/// (blob_crc, min_support, max_rank) binding. Invalid or torn trailing
/// records are silently dropped. Returns false when the file is missing,
/// unreadable, or bound to different inputs; `out` is cleared either way.
bool read_checkpoint(const std::string& path, std::uint32_t blob_crc,
                     Count min_support, Rank max_rank, CheckpointLog& out);

/// Binding CRC for a rank-window mine over a shared blob (the shard-worker
/// unit): the full window keeps the raw blob CRC, so every existing
/// full-range log stays valid, while a proper sub-window folds
/// [rank_lo, rank_hi] into the CRC stream — a log written for one window
/// can never replay into another window of the same blob.
std::uint32_t window_binding_crc(std::uint32_t blob_crc, Rank rank_lo,
                                 Rank rank_hi, Rank max_rank);

/// Appends rank records, flushing each one so it survives a process crash.
class CheckpointWriter {
 public:
  /// Rewrites `path` from scratch: header, then every record of `replay`
  /// (the validated prefix of a previous run, if any), then stays open for
  /// append(). Rewriting on resume guarantees no torn bytes linger between
  /// the replayed prefix and new records. Throws std::runtime_error on I/O
  /// failure.
  CheckpointWriter(const std::string& path, std::uint32_t blob_crc,
                   Count min_support, Rank max_rank,
                   const CheckpointLog* replay = nullptr);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Appends one completed-rank record and flushes it. Throws
  /// std::runtime_error when the stream reports a write failure.
  void append(const CheckpointRecord& record);

  /// Records written through this writer (replayed ones included).
  std::uint64_t records_written() const { return records_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint64_t records_ = 0;
};

}  // namespace plt::compress
