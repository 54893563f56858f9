#include "compress/ooc_miner.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "compress/blob_format.hpp"
#include "compress/checkpoint.hpp"
#include "core/projection_pool.hpp"
#include "core/tree_view.hpp"
#include "obs/trace.hpp"
#include "util/crc32c.hpp"
#include "util/failpoint.hpp"

namespace plt::compress {

namespace {

core::MineStatus mine_from_blob_impl(std::span<const std::uint8_t> blob,
                                     const std::vector<Item>& item_of,
                                     Count min_support,
                                     const core::ItemsetSink& sink,
                                     OocStats* stats,
                                     const OocOptions& options) {
  const core::MiningControl* control = options.control;

  const BlobHeader header = read_blob_header(blob, "mine_from_blob");
  const Rank max_rank = header.max_rank;
  // Untrusted input path: an undersized item map must be a recoverable
  // error, not an assertion, because the blob's max_rank comes off disk.
  if (item_of.size() < max_rank)
    throw std::runtime_error(
        "mine_from_blob: item_of covers " +
        std::to_string(item_of.size()) + " ranks but the blob declares " +
        std::to_string(max_rank));

  // The rank window this call owns: the full range unless the caller (a
  // shard worker) asked for a slice.
  const Rank lo = options.rank_lo == 0 ? 1 : options.rank_lo;
  const Rank hi = options.rank_hi == 0 ? max_rank : options.rank_hi;
  if (lo > hi || hi > max_rank)
    throw std::invalid_argument(
        "mine_from_blob: invalid rank window [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "] over max_rank " + std::to_string(max_rank));
  const auto window_size = static_cast<std::size_t>(hi - lo + 1);

  // The physical tree of every entry, weighted by its frequency, whatever
  // the window: a window or a resume only changes which ranks are mined.
  const core::TreeView tree = [&] {
    PLT_SPAN("build-plt");
    core::TreeView::Rows rows;
    std::size_t bytes = 0;
    for_each_checked_entry(
        blob, header, "mine_from_blob",
        [&](const PartitionFrame&, std::size_t, std::span<const Pos> v, Rank,
            Count freq) { rows.add(v, freq); },
        [&](const PartitionFrame& frame) {
          bytes += frame.payload_end - frame.payload_begin;
        });
    if (stats != nullptr) stats->bytes_decoded += bytes;
    PLT_TRACE_COUNT("bytes-decoded", bytes);
    return core::TreeView::from_rows(rows, max_rank, "mine_from_blob");
  }();
  const std::size_t tree_bytes = tree.memory_usage();
  if (stats != nullptr) stats->peak_overlay_bytes = tree_bytes;

  // Checkpointing: the log is bound to this exact (blob, window,
  // min_support) via the window-folded blob CRC; a matching log's completed
  // ranks are replayed, a mismatched or disabled one starts fresh. The
  // log's own rank field is the window top, so contiguity is checked from
  // rank_hi downward.
  CheckpointLog log;
  std::unique_ptr<CheckpointWriter> writer;
  if (!options.checkpoint_path.empty()) {
    const std::uint32_t binding =
        window_binding_crc(crc32c(blob), lo, hi, max_rank);
    const bool have_log =
        options.resume &&
        read_checkpoint(options.checkpoint_path, binding, min_support, hi,
                        log);
    if (!have_log || log.records.size() > window_size) log.records.clear();
    writer = std::make_unique<CheckpointWriter>(
        options.checkpoint_path, binding, min_support, hi,
        log.records.empty() ? nullptr : &log);
    if (stats != nullptr)
      stats->checkpoint_records = writer->records_written();
  }
  const auto completed = static_cast<Rank>(log.records.size());

  // Replay the recorded emissions verbatim — same order, same supports.
  if (completed > 0) {
    PLT_SPAN("ooc-resume");
    PLT_TRACE_COUNT("resumed-ranks", completed);
    for (const CheckpointRecord& record : log.records)
      record.itemsets.replay(sink);
  }
  if (stats != nullptr) stats->resumed_ranks = completed;

  // One engine for the whole blob: every rank's projections recycle the
  // same pooled frames.
  core::ProjectionEngine engine;
  engine.set_control(control, tree_bytes);

  // Each rank mines into the record's block, reused across ranks; the sink
  // then sees the block in emission order and the writer gets the same
  // block, so the log holds exactly what the sink saw.
  CheckpointRecord record;

  // Algorithm 3's rank loop from the first unrecorded rank down to the
  // window's bottom; the tree is read only, so the ranks above need no
  // re-streaming.
  for (Rank j = hi - completed; j >= lo; --j) {
    if (control != nullptr &&
        control->should_stop(tree_bytes + engine.memory_usage()))
      return control->status();
    PLT_FAILPOINT("ooc.rank");
    PLT_TRACE_COUNT("ranks", 1);
    record.rank = j;
    record.itemsets.clear();
    engine.mine_rank(tree, j, item_of, min_support, record.itemsets, {});
    // A control stop mid-rank still hands the sink what the rank emitted.
    record.itemsets.replay(sink);
    if (engine.interrupted()) return control->status();

    // The rank is complete: one record, flushed, makes it durable. A crash
    // before this line re-mines rank j.
    if (writer != nullptr) {
      PLT_SPAN("checkpoint");
      writer->append(record);
      if (stats != nullptr) stats->checkpoint_records = writer->records_written();
    }
  }
  return control != nullptr ? control->status()
                            : core::MineStatus::kCompleted;
}

}  // namespace

core::MineStatus mine_from_blob(std::span<const std::uint8_t> blob,
                                const std::vector<Item>& item_of,
                                Count min_support,
                                const core::ItemsetSink& sink,
                                OocStats* stats, const OocOptions& options) {
  const core::ResilienceScope scope(options.control);
  PLT_SPAN("ooc-mine");
  const core::MineStatus status =
      mine_from_blob_impl(blob, item_of, min_support, sink, stats, options);
  if (stats != nullptr) stats->resilience = scope.deltas();
  return status;
}

}  // namespace plt::compress
