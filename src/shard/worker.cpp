#include "shard/worker.hpp"

#include <cstdint>
#include <exception>
#include <iostream>
#include <span>
#include <vector>

#include "compress/codec.hpp"
#include "compress/ooc_miner.hpp"
#include "shard/spec.hpp"
#include "util/crc32c.hpp"
#include "util/timer.hpp"

namespace plt::shard {

int run_worker(const std::string& dir, std::size_t shard_id) {
  try {
    const auto manifest_bytes =
        compress::read_blob_file(manifest_path(dir));
    const Manifest manifest = decode_manifest(manifest_bytes);
    if (shard_id >= manifest.shards.size())
      throw std::runtime_error("run_worker: shard id " +
                               std::to_string(shard_id) +
                               " out of range (job has " +
                               std::to_string(manifest.shards.size()) +
                               " shards)");
    const ShardSpec& spec = manifest.shards[shard_id];

    const auto blob = compress::read_blob_file(blob_path(dir));
    // The manifest pins the exact blob this job was split from; a worker
    // must never mine (or resume a log against) different bytes.
    note_crc32c_verification();
    if (crc32c(blob) != manifest.blob_crc)
      throw std::runtime_error(
          "run_worker: blob does not match the manifest CRC");

    compress::OocOptions options;
    options.checkpoint_path = checkpoint_path(dir, shard_id);
    options.resume = true;
    options.rank_lo = spec.rank_lo;
    options.rank_hi = spec.rank_hi;

    // The checkpoint log is the result channel; the sink only counts.
    std::uint64_t emitted = 0;
    const auto sink = [&emitted](std::span<const Item>, Count) {
      ++emitted;
    };

    Timer wall;
    compress::OocStats stats;
    const core::MineStatus status = compress::mine_from_blob(
        blob, manifest.item_of, manifest.min_support, sink, &stats, options);
    if (status != core::MineStatus::kCompleted)
      throw std::runtime_error(std::string("run_worker: mine stopped: ") +
                               core::to_string(status));

    ShardSummary summary;
    summary.shard_id = shard_id;
    summary.rank_lo = spec.rank_lo;
    summary.rank_hi = spec.rank_hi;
    summary.itemsets = emitted;
    summary.bytes_decoded = stats.bytes_decoded;
    summary.checkpoint_records = stats.checkpoint_records;
    summary.resumed_ranks = stats.resumed_ranks;
    summary.wall_ns = static_cast<std::uint64_t>(wall.seconds() * 1e9);
    // Atomic write: the summary's existence certifies completion, so it
    // must never be observable half-written.
    compress::write_blob_file(encode_summary(summary),
                              summary_path(dir, shard_id));
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "plt-shard worker " << shard_id << ": " << error.what()
              << '\n';
    return 1;
  }
}

}  // namespace plt::shard
