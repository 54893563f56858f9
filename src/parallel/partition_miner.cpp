#include "parallel/partition_miner.hpp"

#include <atomic>
#include <exception>
#include <optional>
#include <thread>

#include "core/builder.hpp"
#include "core/projection_pool.hpp"
#include "core/validate.hpp"
#include "obs/trace.hpp"
#include "util/crc32c.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"

namespace plt::parallel {

namespace {

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
                                    const ParallelOptions& options,
                                    const core::Planner* planner) {
  core::MineResult result;
  const core::MiningControl* control = options.control;
  const std::uint64_t checks0 = control != nullptr ? control->checks() : 0;
  const std::uint64_t failpoint0 = FailpointRegistry::instance().total_hits();
  const std::uint64_t crc0 = crc32c_verifications();
  const auto finish = [&]() {
    result.resilience.failpoint_hits =
        FailpointRegistry::instance().total_hits() - failpoint0;
    result.resilience.crc_verifications = crc32c_verifications() - crc0;
    if (control != nullptr) {
      result.resilience.control_checks = control->checks() - checks0;
      result.status = control->status();
    }
  };

  Timer build_timer;
  const core::RankedView view =
      core::build_ranked_view(db, min_support, options.item_order);
  const auto max_rank = static_cast<Rank>(view.alphabet());
  if (max_rank == 0) {
    finish();
    return result;
  }

  // One shared pass: every transaction [r1..rk] sends its prefix
  // [r1..r_{i-1}] to partition CD_{r_i}. Prefixes are position vectors
  // already, so each CD_j is collected directly as a per-rank PLT.
  std::vector<core::Plt> partitions;
  partitions.reserve(max_rank);
  {
    PLT_SPAN("build-partitions");
    PLT_TRACE_COUNT("partitions", max_rank);
    for (Rank j = 1; j <= max_rank; ++j)
      partitions.emplace_back(std::max<Rank>(1, j - 1));

    core::PosVec v;
    for (std::size_t t = 0; t < view.db.size(); ++t) {
      const auto ranks = view.db[t];
      v.clear();
      Rank prev = 0;
      for (const Rank r : ranks) {
        v.push_back(r - prev);
        prev = r;
      }
      for (std::size_t i = ranks.size(); i-- > 1;) {
        // Prefix of length i goes to CD of rank ranks[i].
        partitions[ranks[i] - 1].add(std::span<const Pos>(v.data(), i), 1);
      }
    }
  }
  result.build_seconds = build_timer.seconds();
  // Under PLT_VALIDATE every per-rank conditional database is structurally
  // checked before any worker mines it (the merged output is only as good
  // as the CDs it came from).
  if (core::validation_enabled())
    for (Rank j = 1; j <= max_rank; ++j)
      core::validate_or_throw(partitions[j - 1],
                              "mine_parallel: partition CD");
  for (const auto& p : partitions) result.structure_bytes += p.memory_usage();

  Timer mine_timer;
  // Ranks are raw view ranks in every subproblem, so one shared translation
  // covers all of them (each CD_j only uses ranks < j).
  std::vector<Item> item_of(max_rank);
  for (Rank r = 1; r <= max_rank; ++r) item_of[r - 1] = view.item_of(r);

  // Per-rank result slots: each is written by exactly one worker, then
  // concatenated in rank order — deterministic output with no merge mutex.
  std::vector<core::FrequentItemsets> per_rank(max_rank);

  const std::size_t workers = options.threads;
  const std::size_t steal_chunk = std::max<std::size_t>(1, options.steal_chunk);
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
    const Rank j = static_cast<Rank>(idx + 1);
    const auto sink = core::collect_into(per_rank[idx]);
    // The 1-itemset {j} is frequent by construction of the view.
    const Itemset single =
        core::ranks_to_items(view, std::span<const Rank>(&j, 1));
    sink(single, view.support_of(j));

    core::Plt& cd = partitions[idx];
    if (cd.num_vectors() > 0) {
      std::vector<Item> suffix = {view.item_of(j)};
      engine.mine(cd, item_of, suffix, min_support, sink,
                  options.conditional);
    }
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
  {
    std::vector<std::thread> crew;
    crew.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      crew.emplace_back([&, w] {
        try {
          core::ProjectionEngine engine;
          engine.set_control(control, result.structure_bytes);
          // One shared read-only planner: decisions are pure functions of
          // shape + config, so plans stay thread-count-invariant no matter
          // which worker claims a rank. No partition stats here — each
          // engine mines inside CD_j, where engine-local depth 0 is not a
          // view partition.
          engine.set_planner(planner);
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
                vw.next.fetch_add(steal_chunk, std::memory_order_relaxed);
            if (got >= vw.end) continue;  // lost the race; rescan
            ++steals;
            const std::size_t hi = std::min(vw.end, got + steal_chunk);
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
  // mined what.
  {
    PLT_SPAN("merge");
    for (std::size_t idx = 0; idx < per_rank.size(); ++idx) {
      const core::FrequentItemsets& local = per_rank[idx];
      for (std::size_t i = 0; i < local.size(); ++i)
        result.itemsets.add(local.itemset(i), local.support(i));
    }
  }
  // Steals are scheduling noise, not work: they stay in ProjectionStats and
  // out of the trace so the merged tree is identical at any thread count.
  for (const auto& stats : worker_stats) result.projection.merge(stats);
  if (options.rank_latency != nullptr)
    for (const auto& latency : worker_latency)
      options.rank_latency->merge(latency);
  result.mine_seconds = mine_timer.seconds();
  finish();
  return result;
}

}  // namespace

core::MineResult mine_parallel(const tdb::Database& db, Count min_support,
                               const ParallelOptions& options) {
  PLT_ASSERT(min_support >= 1, "min_support must be >= 1");
  PLT_ASSERT(options.threads >= 1, "need at least one thread");
  std::optional<core::Planner> planner;
  if (options.plan == core::PlanMode::kAdaptive)
    planner.emplace(options.plan_config);
  obs::AutoSession trace_session;
  core::MineResult result;
  {
    PLT_SPAN("mine-parallel");
    result = mine_parallel_impl(db, min_support, options,
                                planner ? &*planner : nullptr);
    PLT_TRACE_COUNT("itemsets-total", result.itemsets.size());
  }
  result.trace = trace_session.finish();
  return result;
}

}  // namespace plt::parallel
