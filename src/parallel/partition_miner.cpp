#include "parallel/partition_miner.hpp"

#include <atomic>
#include <exception>
#include <optional>
#include <thread>

#include "core/builder.hpp"
#include "core/projection_pool.hpp"
#include "core/thread_context.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"

namespace plt::parallel {

namespace {

// Ranks a worker takes per steal once its own window is empty. Small keeps
// the tail balanced; large amortizes the (cheap) claim contention.
constexpr std::size_t kStealChunk = 4;

// Per-worker claim window over the rank index space. Owners and thieves both
// claim through the atomic cursor, so an index is mined by exactly one
// worker. alignas keeps adjacent windows off one cache line.
//
// Concurrency contract (no mutex anywhere on this path): `next` is the only
// cross-thread-mutable field; `end` is written before the crew spawns and
// is read-only afterwards, published by the happens-before of thread
// creation. Relaxed ordering suffices because claiming an index transfers
// no data — the partitions and result slots it names are owned per-index.
struct alignas(64) ClaimWindow {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;  ///< const after crew start; no atomicity needed
};

core::MineResult mine_parallel_impl(const tdb::Database& db,
                                    Count min_support,
                                    const ParallelOptions& options) {
  core::MineResult result;
  const core::MiningControl* control = options.control;

  Timer build_timer;
  const core::RankedView view = core::build_ranked_view(db, min_support);
  const auto max_rank = static_cast<Rank>(view.alphabet());
  if (max_rank == 0) return result;

  // One shared tree: every transaction [r1..rk] reaches CD_{r_i} as the
  // path of its rank-r_i node's parent, so the per-rank partitions are the
  // tree's rank buckets and nothing is materialized per rank.
  const core::TreeView tree = [&] {
    PLT_SPAN("build-partitions");
    PLT_TRACE_COUNT("partitions", max_rank);
    return core::build_tree(view.db, max_rank);
  }();
  result.build_seconds = build_timer.seconds();
  result.structure_bytes = tree.memory_usage();

  Timer mine_timer;
  // Ranks are raw view ranks in every subproblem, so one shared translation
  // covers all of them (each CD_j only uses ranks < j).
  std::vector<Item> item_of(max_rank);
  for (Rank r = 1; r <= max_rank; ++r) item_of[r - 1] = view.item_of(r);

  // Per-rank result blocks: each is written by exactly one worker, then
  // appended in rank order — deterministic output with no merge mutex.
  std::vector<core::FrequentItemsets> per_rank(max_rank);

  const std::size_t workers = options.threads;
  std::vector<ClaimWindow> windows(workers);
  const std::size_t per_worker = (max_rank + workers - 1) / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = std::min<std::size_t>(w * per_worker, max_rank);
    windows[w].next.store(begin, std::memory_order_relaxed);
    windows[w].end = std::min<std::size_t>(begin + per_worker, max_rank);
  }

  // Per-worker latency histograms (merged after the join): recording is
  // thread-local, and bucket addition makes the merged shape independent of
  // which worker claimed which rank.
  std::vector<obs::LatencyHistogram> worker_latency(
      options.rank_latency != nullptr ? options.threads : 0);

  const auto mine_rank = [&](std::size_t idx, core::ProjectionEngine& engine,
                             obs::LatencyHistogram* latency) {
    // Exactly one "mine-rank" span per rank index, whichever worker claims
    // it — the merged span count equals max_rank for every thread count.
    PLT_SPAN("mine-rank");
    PLT_FAILPOINT("parallel.mine_rank");
    std::optional<Timer> timer;
    if (latency != nullptr) timer.emplace();
    // The same per-rank step as the sequential miner: {j} (frequent by
    // construction of the view), then CD_j's projection, mined.
    engine.mine_rank(tree, static_cast<Rank>(idx + 1), item_of, min_support,
                     per_rank[idx], {});
    if (latency != nullptr) latency->record_seconds(timer->seconds());
  };

  // worker_stats[w] / worker_errors[w] are written only by worker w and
  // read only after the join — per-slot ownership, published by join()'s
  // happens-before, same discipline as per_rank above.
  std::vector<core::ProjectionStats> worker_stats(workers);
  // An injected fault (or any other exception) in one worker must not leak
  // out of its thread: it is captured, every worker winds down through the
  // abort flag, and the first capture is rethrown on the calling thread.
  std::vector<std::exception_ptr> worker_errors(workers);
  std::atomic<bool> abort{false};
  const core::ThreadContext context;
  {
    std::vector<std::thread> crew;
    crew.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      crew.emplace_back([&, w] {
        try {
          const core::BoundContext bound(context);
          core::ProjectionEngine engine;
          engine.set_control(control, result.structure_bytes);
          obs::LatencyHistogram* latency =
              worker_latency.empty() ? nullptr : &worker_latency[w];
          std::uint64_t steals = 0;
          const auto stop = [&] {
            return abort.load(std::memory_order_relaxed) ||
                   (control != nullptr && control->should_stop(0));
          };
          // Drain the worker's own window.
          ClaimWindow& own = windows[w];
          for (;;) {
            if (stop()) break;
            const std::size_t idx =
                own.next.fetch_add(1, std::memory_order_relaxed);
            if (idx >= own.end) break;
            mine_rank(idx, engine, latency);
          }
          // Then steal chunks from whichever peer has the most left.
          for (;;) {
            if (stop()) break;
            std::size_t victim = workers;
            std::size_t best_remaining = 0;
            for (std::size_t p = 0; p < workers; ++p) {
              if (p == w) continue;
              const std::size_t cursor =
                  windows[p].next.load(std::memory_order_relaxed);
              const std::size_t remaining =
                  cursor < windows[p].end ? windows[p].end - cursor : 0;
              if (remaining > best_remaining) {
                best_remaining = remaining;
                victim = p;
              }
            }
            if (victim == workers) break;  // everyone is drained
            ClaimWindow& vw = windows[victim];
            const std::size_t got =
                vw.next.fetch_add(kStealChunk, std::memory_order_relaxed);
            if (got >= vw.end) continue;  // lost the race; rescan
            ++steals;
            const std::size_t hi = std::min(vw.end, got + kStealChunk);
            for (std::size_t idx = got; idx < hi; ++idx) {
              if (stop()) break;
              mine_rank(idx, engine, latency);
            }
          }
          worker_stats[w] = engine.stats();
          worker_stats[w].steals = steals;
        } catch (...) {
          worker_errors[w] = std::current_exception();
          abort.store(true, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : crew) t.join();
  }
  for (const auto& error : worker_errors)
    if (error) std::rethrow_exception(error);

  // Deterministic ordered merge: rank order regardless of which worker
  // mined what, one append per block, each block freed once appended.
  {
    PLT_SPAN("merge");
    for (core::FrequentItemsets& block : per_rank) {
      result.itemsets.append(block);
      block = {};
    }
  }
  // Steals are scheduling noise, not work: they stay in ProjectionStats and
  // out of the trace so the merged tree is identical at any thread count.
  for (const auto& stats : worker_stats) result.projection.merge(stats);
  if (options.rank_latency != nullptr)
    for (const auto& latency : worker_latency)
      options.rank_latency->merge(latency);
  result.mine_seconds = mine_timer.seconds();
  return result;
}

}  // namespace

core::MineResult mine_parallel(const tdb::Database& db, Count min_support,
                               const ParallelOptions& options) {
  PLT_ASSERT(min_support >= 1, "min_support must be >= 1");
  PLT_ASSERT(options.threads >= 1, "need at least one thread");
  PLT_SPAN("mine-parallel");
  core::MineResult result = mine_parallel_impl(db, min_support, options);
  if (options.control != nullptr) result.status = options.control->status();
  PLT_TRACE_COUNT("itemsets-total", result.itemsets.size());
  return result;
}

}  // namespace plt::parallel
