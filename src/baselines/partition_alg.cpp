#include "baselines/partition_alg.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "baselines/counting.hpp"
#include "core/miner.hpp"
#include "util/timer.hpp"

namespace plt::baselines {

namespace {
struct ItemsetHash {
  std::size_t operator()(const Itemset& s) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Item i : s) {
      h ^= i;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};
}  // namespace

void mine_partition(const tdb::Database& db, Count min_support,
                    const ItemsetSink& sink, BaselineStats* stats,
                    const PartitionOptions& options,
                    const MiningControl* control) {
  PLT_ASSERT(min_support >= 1, "min_support must be >= 1");
  PLT_ASSERT(options.partitions >= 1, "need at least one partition");
  Timer mine_timer;
  const std::size_t n = db.size();
  if (n == 0) {
    if (stats) stats->mine_seconds = mine_timer.seconds();
    return;
  }
  const std::size_t chunks = std::min(options.partitions, n);
  const std::size_t per_chunk = (n + chunks - 1) / chunks;
  const double relative =
      static_cast<double>(min_support) / static_cast<double>(n);

  // Phase 1: mine each chunk at the equivalent relative threshold; union
  // the local frequents into the global candidate set.
  std::unordered_set<Itemset, ItemsetHash> candidate_set;
  std::size_t peak_bytes = 0;
  core::MineOptions chunk_options;
  chunk_options.control = control;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (control != nullptr && control->should_stop(peak_bytes)) break;
    const std::size_t begin = c * per_chunk;
    const std::size_t end = std::min(n, begin + per_chunk);
    if (begin >= end) break;
    tdb::Database chunk;
    for (std::size_t t = begin; t < end; ++t) chunk.add(db[t]);
    const auto local_minsup = std::max<Count>(
        1, static_cast<Count>(
               std::ceil(relative * static_cast<double>(chunk.size()))));
    const auto local = core::mine(chunk, local_minsup,
                                  core::Algorithm::kPltConditional,
                                  chunk_options);
    peak_bytes = std::max(peak_bytes, local.structure_bytes);
    if (local.status != core::MineStatus::kCompleted) break;
    for (std::size_t i = 0; i < local.itemsets.size(); ++i)
      candidate_set.insert(local.itemsets.itemset(i));
  }
  // Stopped runs skip the exact pass: locally-frequent candidates carry
  // estimated counts only, so emitting them would report wrong supports.
  if (control != nullptr && control->should_stop(peak_bytes)) {
    if (stats) {
      stats->mine_seconds = mine_timer.seconds();
      stats->structure_bytes = peak_bytes;
    }
    return;
  }

  // Phase 2: one exact counting pass over the whole database.
  std::vector<Itemset> candidates(candidate_set.begin(),
                                  candidate_set.end());
  const auto counts = count_supports(db, candidates);
  for (std::size_t c = 0; c < candidates.size(); ++c)
    if (counts[c] >= min_support) sink(candidates[c], counts[c]);

  if (stats) {
    stats->mine_seconds = mine_timer.seconds();
    stats->structure_bytes = peak_bytes;
  }
}

}  // namespace plt::baselines
