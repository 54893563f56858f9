#include "compress/ooc_miner.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "compress/blob_format.hpp"
#include "compress/checkpoint.hpp"
#include "core/conditional.hpp"
#include "core/projection_pool.hpp"
#include "core/validate.hpp"
#include "obs/trace.hpp"
#include "util/crc32c.hpp"
#include "util/failpoint.hpp"

namespace plt::compress {

namespace {

// Streams the entries of one sum bucket out of the blob, reporting bytes
// visited.
template <typename Fn>  // Fn(span<const Pos>, Count)
std::size_t stream_bucket(std::span<const std::uint8_t> blob,
                          const BlobIndex& index, Rank sum, Fn&& fn) {
  std::size_t bytes = 0;
  core::PosVec v;
  for (const auto& [length, entry_offset] : index.buckets[sum - 1]) {
    std::size_t offset = entry_offset;
    Count freq = 0;
    decode_blob_entry(blob, offset, length, v, freq);
    bytes += offset - entry_offset;
    fn(std::span<const Pos>(v), freq);
  }
  return bytes;
}

struct VecHash {
  std::size_t operator()(const core::PosVec& v) const {
    return static_cast<std::size_t>(core::Partition::hash(v));
  }
};

// Per-sum overlay of re-inserted prefixes. Unlike a monolithic PLT, each
// bucket is dropped as soon as its rank has been processed, so the resident
// working set at rank j is only the prefixes still waiting for ranks < j.
class Overlay {
 public:
  explicit Overlay(Rank max_rank) : buckets_(max_rank) {}

  void add(const core::PosVec& v, Count freq, Rank sum) {
    auto [it, inserted] = buckets_[sum - 1].try_emplace(v, freq);
    if (inserted) {
      live_bytes_ += v.size() * sizeof(Pos) + kEntryOverhead;
    } else {
      it->second += freq;
    }
  }

  const std::unordered_map<core::PosVec, Count, VecHash>& bucket(
      Rank sum) const {
    return buckets_[sum - 1];
  }

  void drop(Rank sum) {
    for (const auto& [v, freq] : buckets_[sum - 1])
      live_bytes_ -= v.size() * sizeof(Pos) + kEntryOverhead;
    buckets_[sum - 1] = {};
  }

  std::size_t live_bytes() const { return live_bytes_; }

 private:
  // Approximate per-entry map overhead (node + bucket slot + vector header).
  static constexpr std::size_t kEntryOverhead =
      sizeof(void*) * 4 + sizeof(core::PosVec) + sizeof(Count);

  std::vector<std::unordered_map<core::PosVec, Count, VecHash>> buckets_;
  std::size_t live_bytes_ = 0;
};

core::MineStatus mine_from_blob_impl(std::span<const std::uint8_t> blob,
                                     const std::vector<Item>& item_of,
                                     Count min_support,
                                     const core::ItemsetSink& sink,
                                     OocStats* stats,
                                     const OocOptions& options) {
  const core::MiningControl* control = options.control;
  const std::uint64_t checks0 = control != nullptr ? control->checks() : 0;
  const std::uint64_t failpoint0 = FailpointRegistry::instance().total_hits();
  const std::uint64_t crc0 = crc32c_verifications();
  const auto finish = [&](core::MineStatus status) {
    if (stats != nullptr) {
      stats->resilience.failpoint_hits =
          FailpointRegistry::instance().total_hits() - failpoint0;
      stats->resilience.crc_verifications = crc32c_verifications() - crc0;
      stats->resilience.checkpoint_records = stats->checkpoint_records;
      if (control != nullptr)
        stats->resilience.control_checks = control->checks() - checks0;
    }
    return status;
  };

  const BlobIndex index = build_index(blob);
  // Untrusted input path: an undersized item map must be a recoverable
  // error, not an assertion, because the blob's max_rank comes off disk.
  if (item_of.size() < index.max_rank)
    throw std::runtime_error(
        "mine_from_blob: item_of covers " +
        std::to_string(item_of.size()) + " ranks but the blob declares " +
        std::to_string(index.max_rank));

  // The rank window this call owns: the full range unless the caller (a
  // shard worker) asked for a slice.
  const Rank lo = options.rank_lo == 0 ? 1 : options.rank_lo;
  const Rank hi = options.rank_hi == 0 ? index.max_rank : options.rank_hi;
  if (lo > hi || hi > index.max_rank)
    throw std::invalid_argument(
        "mine_from_blob: invalid rank window [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "] over max_rank " +
        std::to_string(index.max_rank));
  const auto window_size = static_cast<std::size_t>(hi - lo + 1);

  // Checkpointing: the log is bound to this exact (blob, window,
  // min_support) via the window-folded blob CRC; a matching log's completed
  // ranks are replayed, a mismatched or disabled one starts fresh. The
  // log's own rank field is the window top, so contiguity is checked from
  // rank_hi downward.
  CheckpointLog log;
  std::unique_ptr<CheckpointWriter> writer;
  if (!options.checkpoint_path.empty()) {
    const std::uint32_t binding =
        window_binding_crc(crc32c(blob), lo, hi, index.max_rank);
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
  for (const CheckpointRecord& record : log.records)
    for (const auto& [items, support] : record.itemsets)
      sink(items, support);
  if (stats != nullptr) stats->resumed_ranks = completed;

  Overlay overlay(index.max_rank);
  std::vector<std::pair<core::PosVec, Count>> cond;
  core::PosVec scratch;

  // First rank left to mine; lo - 1 when the whole window is durable.
  const Rank first_mine = hi - completed;

  // Rebuild the overlay state the ranks above first_mine leave behind by
  // re-running their streaming pass without emitting: the overlay is a pure
  // function of (blob, ranks processed), so the walk below sees
  // byte-identical conditional databases whether those ranks were mined by
  // this process (resume), by another shard (window), or not at all.
  const auto warm_pass = [&](Rank from, Rank down_to) {
    for (Rank j = from; j >= down_to; --j) {
      const auto warm = [&](std::span<const Pos> v, Count freq) {
        if (v.size() > 1 && freq > 0) {
          scratch.assign(v.begin(), v.end() - 1);
          overlay.add(scratch, freq, j - v.back());
        }
      };
      const std::size_t bytes = stream_bucket(blob, index, j, warm);
      if (stats != nullptr) stats->bytes_decoded += bytes;
      PLT_TRACE_COUNT("bytes-decoded", bytes);
      for (const auto& [v, freq] : overlay.bucket(j)) warm(v, freq);
      overlay.drop(j);
      if (stats != nullptr) ++stats->warmed_ranks;
    }
  };
  if (first_mine >= lo && first_mine < index.max_rank) {
    if (completed > 0) {
      PLT_SPAN("ooc-resume");
      PLT_TRACE_COUNT("resumed-ranks", completed);
      PLT_TRACE_COUNT("warmed-ranks", index.max_rank - first_mine);
      warm_pass(index.max_rank, first_mine + 1);
    } else {
      PLT_SPAN("ooc-warm");
      PLT_TRACE_COUNT("warmed-ranks", index.max_rank - first_mine);
      warm_pass(index.max_rank, first_mine + 1);
    }
  }

  Itemset suffix;
  core::ConditionalOptions cond_options;
  // One engine for the whole blob: every rank's conditional PLT recycles
  // the same pooled frames.
  core::ProjectionEngine engine;
  // Shape-only planning: the streamed subtrees are inside one rank's CD,
  // so there are no view-partition stats to hand over. Emission order is
  // strategy-invariant, so checkpoint records stay exact across plans.
  std::optional<core::Planner> planner;
  if (options.plan == core::PlanMode::kAdaptive) {
    planner.emplace(options.plan_config);
    engine.set_planner(&*planner);
  }
  // Rank-level planning is a separate planner that owns the caller's view
  // partition stats (the engine above must stay shape-only — its depth-0
  // is inside CD_j, not a view partition). Only the O(1) resolved witness
  // is used: partitions at or above rank j all full paths proves that every
  // vector the walk can feed into CD_j — original members and prefixes
  // reinserted from higher ranks alike — is the full path over ranks
  // 1..j-1, so CD_j is exactly single-path without scanning it.
  std::optional<core::Planner> rank_planner;
  if (options.plan == core::PlanMode::kAdaptive &&
      !options.partition_stats.empty()) {
    rank_planner.emplace(options.plan_config);
    rank_planner->set_partition_stats(options.partition_stats);
  }

  CheckpointRecord record;
  // All emissions of the current rank flow through this wrapper so the
  // checkpoint record holds exactly what the sink saw, in order.
  const core::ItemsetSink rank_sink = [&](std::span<const Item> items,
                                          Count support) {
    sink(items, support);
    if (writer != nullptr)
      record.itemsets.emplace_back(Itemset(items.begin(), items.end()),
                                   support);
  };

  for (Rank j = first_mine; j >= lo && j >= 1; --j) {
    if (control != nullptr &&
        control->should_stop(overlay.live_bytes() + engine.memory_usage()))
      return finish(control->status());
    PLT_FAILPOINT("ooc.rank");
    PLT_TRACE_COUNT("ranks", 1);
    record.rank = j;
    record.itemsets.clear();

    Count support = 0;
    cond.clear();
    const auto consume = [&](std::span<const Pos> v, Count freq) {
      support += freq;
      if (v.size() > 1 && freq > 0) {
        scratch.assign(v.begin(), v.end() - 1);
        cond.emplace_back(scratch, freq);
        overlay.add(scratch, freq, j - v.back());
      }
    };
    const std::size_t bytes = stream_bucket(blob, index, j, consume);
    if (stats != nullptr) stats->bytes_decoded += bytes;
    PLT_TRACE_COUNT("bytes-decoded", bytes);
    for (const auto& [v, freq] : overlay.bucket(j)) consume(v, freq);
    if (stats != nullptr)
      stats->peak_overlay_bytes =
          std::max(stats->peak_overlay_bytes, overlay.live_bytes());
    overlay.drop(j);  // rank j's prefixes will never be visited again

    if (support >= min_support) {
      suffix.push_back(item_of[j - 1]);
      {
        Itemset emitted = suffix;
        std::sort(emitted.begin(), emitted.end());
        rank_sink(emitted, support);
      }
      bool resolved_single_path = false;
      if (!cond.empty() && rank_planner &&
          rank_planner->wants_single_path_probe(j, &resolved_single_path) &&
          resolved_single_path) {
        // Witnessed single-path subtree: every conditional vector is the
        // full path over ranks 1..j-1, so every subset shares one support
        // (the path's total frequency) and the whole subtree expands
        // without building a conditional PLT. The expansion order is the
        // pooled walk's own order, so emissions — and therefore checkpoint
        // records — stay byte-identical to the fixed plan.
        Count total = 0;
        for (const auto& [v, freq] : cond) total += freq;
        if (total >= min_support) {
          PLT_TRACE_COUNT("plan.rank.single-path", 1);
          const std::vector<Item> path_items(item_of.begin(),
                                             item_of.begin() + (j - 1));
          engine.set_control(control, overlay.live_bytes());
          engine.expand_single_path(path_items, static_cast<Rank>(j - 1),
                                    total, suffix, rank_sink);
          if (engine.interrupted()) return finish(control->status());
        }
      } else if (!cond.empty()) {
        core::ConditionalProjection child = core::make_conditional_plt(
            cond, j, min_support, cond_options.filter_conditional_items);
        // Under PLT_VALIDATE each conditional projection — including the
        // ones built right after a checkpoint resume rebuilt the overlay —
        // is structurally checked before mining it.
        core::maybe_validate(child.plt, "mine_from_blob: conditional PLT");
        if (!child.empty()) {
          std::vector<Item> child_item_of(child.to_parent.size());
          for (std::size_t c = 0; c < child.to_parent.size(); ++c)
            child_item_of[c] = item_of[child.to_parent[c] - 1];
          engine.set_control(control, overlay.live_bytes());
          engine.mine(child.plt, child_item_of, suffix, min_support,
                      rank_sink, cond_options);
          if (engine.interrupted()) return finish(control->status());
        }
      }
      suffix.pop_back();
    }

    // The rank is complete (streamed, mined, overlay advanced): one record,
    // flushed, makes it durable. A crash before this line re-mines rank j.
    if (writer != nullptr) {
      PLT_SPAN("checkpoint");
      writer->append(record);
      if (stats != nullptr) stats->checkpoint_records = writer->records_written();
    }
  }
  return finish(control != nullptr ? control->status()
                                   : core::MineStatus::kCompleted);
}

}  // namespace

core::MineStatus mine_from_blob(std::span<const std::uint8_t> blob,
                                const std::vector<Item>& item_of,
                                Count min_support,
                                const core::ItemsetSink& sink,
                                OocStats* stats, const OocOptions& options) {
  obs::AutoSession trace_session;
  core::MineStatus status;
  {
    PLT_SPAN("ooc-mine");
    status = mine_from_blob_impl(blob, item_of, min_support, sink, stats,
                                 options);
  }
  if (auto trace = trace_session.finish(); stats != nullptr)
    stats->trace = std::move(trace);
  return status;
}

}  // namespace plt::compress
