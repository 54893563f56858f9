#include "core/miner.hpp"

#include "baselines/ais.hpp"
#include "baselines/apriori.hpp"
#include "baselines/brute.hpp"
#include "baselines/dic.hpp"
#include "baselines/partition_alg.hpp"
#include "baselines/eclat.hpp"
#include "baselines/fpgrowth.hpp"
#include "baselines/hmine.hpp"
#include <optional>

#include "core/builder.hpp"
#include "core/conditional.hpp"
#include "core/planner.hpp"
#include "core/topdown.hpp"
#include "core/validate.hpp"
#include "tdb/stats.hpp"
#include "util/crc32c.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"

namespace plt::core {

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kPltConditional: return "plt-conditional";
    case Algorithm::kPltConditionalNoFilter: return "plt-cond-nofilter";
    case Algorithm::kPltTopDownCanonical: return "plt-topdown";
    case Algorithm::kPltTopDownSweep: return "plt-topdown-sweep";
    case Algorithm::kAis: return "ais";
    case Algorithm::kApriori: return "apriori";
    case Algorithm::kAprioriTid: return "apriori-tid";
    case Algorithm::kDhp: return "dhp";
    case Algorithm::kDic: return "dic";
    case Algorithm::kPartition: return "partition";
    case Algorithm::kFpGrowth: return "fp-growth";
    case Algorithm::kHMine: return "h-mine";
    case Algorithm::kEclat: return "eclat";
    case Algorithm::kDEclat: return "declat";
    case Algorithm::kBruteForce: return "brute-force";
  }
  return "?";
}

const std::vector<Algorithm>& all_algorithms() {
  static const std::vector<Algorithm> algorithms = {
      Algorithm::kPltConditional,     Algorithm::kPltConditionalNoFilter,
      Algorithm::kPltTopDownCanonical, Algorithm::kPltTopDownSweep,
      Algorithm::kAis,                Algorithm::kApriori,
      Algorithm::kAprioriTid,
      Algorithm::kDhp,                Algorithm::kDic,
      Algorithm::kPartition,          Algorithm::kFpGrowth,
      Algorithm::kHMine,              Algorithm::kEclat,
      Algorithm::kDEclat};
  return algorithms;
}

namespace {

// Snapshots the process-wide resilience counters so a MineResult can report
// the deltas attributable to this mine (the control's checks are exact).
struct ResilienceScope {
  const MiningControl* control;
  std::uint64_t checks0 = 0;
  std::uint64_t failpoint0 = 0;
  std::uint64_t crc0 = 0;

  explicit ResilienceScope(const MiningControl* c) : control(c) {
    if (control != nullptr) checks0 = control->checks();
    failpoint0 = FailpointRegistry::instance().total_hits();
    crc0 = crc32c_verifications();
  }

  void finish(MineResult& result) const {
    result.resilience.failpoint_hits =
        FailpointRegistry::instance().total_hits() - failpoint0;
    result.resilience.crc_verifications = crc32c_verifications() - crc0;
    if (control == nullptr) return;
    result.resilience.control_checks = control->checks() - checks0;
    result.status = control->status();
    if (result.status == MineStatus::kBudgetExceeded)
      result.degradation_hint =
          "memory budget exceeded: serialize the database with encode_plt() "
          "and mine the blob out of core via mine_from_blob(), which streams "
          "one rank bucket at a time";
  }
};

MineResult mine_plt_family(const tdb::Database& db, Count min_support,
                           Algorithm algorithm, const MineOptions& options,
                           Planner* planner) {
  MineResult result;
  Timer build_timer;
  RankedView view = build_ranked_view(db, min_support, options.item_order);
  const auto sink = collect_into(result.itemsets);

  switch (algorithm) {
    case Algorithm::kPltConditional:
    case Algorithm::kPltConditionalNoFilter: {
      if (view.alphabet() == 0) break;
      const auto max_rank = static_cast<Rank>(view.alphabet());
      // Root planning: only the default algorithm is up for grabs (the
      // no-filter ablation must stay the literal Algorithm 3), and only
      // when the adaptive plan is active. The view's global + partition
      // stats are one extra pass; every decision lands in plan.* counters.
      if (planner != nullptr && algorithm == Algorithm::kPltConditional) {
        Planner::Root root;
        {
          PLT_SPAN("plan");
          const tdb::Stats stats = tdb::compute_stats(view.db);
          auto partitions =
              tdb::compute_all_partition_stats(view.db, max_rank);
          root = planner->choose_root(stats, partitions, min_support);
          planner->set_partition_stats(std::move(partitions));
        }
        if (root == Planner::Root::kEclat) {
          PLT_TRACE_COUNT("plan.root.eclat", 1);
          result.plan_root = "eclat";
          baselines::BaselineStats stats;
          baselines::mine_eclat(db, min_support, sink, &stats,
                                options.control);
          result.build_seconds = stats.build_seconds;
          result.mine_seconds = stats.mine_seconds;
          result.structure_bytes = stats.structure_bytes;
          return result;
        }
        PLT_TRACE_COUNT("plan.root.conditional", 1);
        result.plan_root = "conditional";
      }
      Plt plt = build_plt(view.db, max_rank);
      maybe_validate(plt, "mine: build_plt");
      result.build_seconds = build_timer.seconds();
      result.structure_bytes = plt.memory_usage();
      Timer mine_timer;
      ConditionalOptions cond;
      cond.filter_conditional_items =
          (algorithm == Algorithm::kPltConditional);
      std::vector<Item> item_of(max_rank);
      for (Rank r = 1; r <= max_rank; ++r) item_of[r - 1] = view.item_of(r);
      std::vector<Item> suffix;
      ProjectionEngine engine;
      engine.set_control(options.control, result.structure_bytes);
      if (algorithm == Algorithm::kPltConditional)
        engine.set_planner(planner);
      engine.mine(plt, item_of, suffix, min_support, sink, cond);
      result.projection = engine.stats();
      result.mine_seconds = mine_timer.seconds();
      break;
    }
    case Algorithm::kPltTopDownCanonical:
    case Algorithm::kPltTopDownSweep: {
      result.build_seconds = build_timer.seconds();
      Timer mine_timer;
      TopDownOptions topdown;
      topdown.max_transaction_len = options.topdown_max_transaction_len;
      topdown.control = options.control;
      TopDownStats stats;
      mine_topdown(view, min_support, sink,
                   algorithm == Algorithm::kPltTopDownCanonical
                       ? TopDownVariant::kCanonical
                       : TopDownVariant::kSweep,
                   topdown, &stats);
      result.structure_bytes = stats.table_bytes;
      result.mine_seconds = mine_timer.seconds();
      break;
    }
    default:
      PLT_ASSERT(false, "not a PLT-family algorithm");
  }
  return result;
}

/// The latched MineStatus as a trace counter ("status.completed", ...) so
/// resilience traces record why a mine stopped — names are static, the
/// resilience-path tests read them back from the aggregated tree.
/// [[maybe_unused]]: its only caller is PLT_TRACE_COUNT, which compiles
/// away under -DPLT_OBS=OFF.
[[maybe_unused]] const char* status_counter_name(MineStatus status) {
  switch (status) {
    case MineStatus::kCompleted: return "status.completed";
    case MineStatus::kCancelled: return "status.cancelled";
    case MineStatus::kDeadlineExceeded: return "status.deadline-exceeded";
    case MineStatus::kBudgetExceeded: return "status.budget-exceeded";
  }
  return "status.unknown";
}

MineResult mine_impl(const tdb::Database& db, Count min_support,
                     Algorithm algorithm, const MineOptions& options,
                     Planner* planner) {
  const MiningControl* control = options.control;
  const ResilienceScope scope(control);
  switch (algorithm) {
    case Algorithm::kPltConditional:
    case Algorithm::kPltConditionalNoFilter:
    case Algorithm::kPltTopDownCanonical:
    case Algorithm::kPltTopDownSweep: {
      MineResult result = mine_plt_family(db, min_support, algorithm,
                                          options, planner);
      scope.finish(result);
      return result;
    }
    case Algorithm::kAis:
    case Algorithm::kApriori:
    case Algorithm::kAprioriTid:
    case Algorithm::kDhp:
    case Algorithm::kDic:
    case Algorithm::kPartition: {
      MineResult result;
      baselines::BaselineStats stats;
      const auto sink = collect_into(result.itemsets);
      switch (algorithm) {
        case Algorithm::kAis:
          baselines::mine_ais(db, min_support, sink, &stats, control);
          break;
        case Algorithm::kApriori:
          baselines::mine_apriori(db, min_support, sink, &stats, control);
          break;
        case Algorithm::kAprioriTid:
          baselines::mine_apriori_tid(db, min_support, sink, &stats,
                                      control);
          break;
        case Algorithm::kDhp:
          baselines::mine_dhp(db, min_support, sink, &stats, 1 << 16,
                              control);
          break;
        case Algorithm::kDic:
          baselines::mine_dic(db, min_support, sink, &stats, {}, control);
          break;
        default:
          baselines::mine_partition(db, min_support, sink, &stats, {},
                                    control);
          break;
      }
      result.build_seconds = stats.build_seconds;
      result.mine_seconds = stats.mine_seconds;
      result.structure_bytes = stats.structure_bytes;
      scope.finish(result);
      return result;
    }
    case Algorithm::kHMine: {
      MineResult result;
      baselines::BaselineStats stats;
      baselines::mine_hmine(db, min_support, collect_into(result.itemsets),
                            &stats, control);
      result.build_seconds = stats.build_seconds;
      result.mine_seconds = stats.mine_seconds;
      result.structure_bytes = stats.structure_bytes;
      scope.finish(result);
      return result;
    }
    case Algorithm::kFpGrowth: {
      MineResult result;
      baselines::BaselineStats stats;
      baselines::mine_fpgrowth(db, min_support,
                               collect_into(result.itemsets), &stats,
                               control);
      result.build_seconds = stats.build_seconds;
      result.mine_seconds = stats.mine_seconds;
      result.structure_bytes = stats.structure_bytes;
      scope.finish(result);
      return result;
    }
    case Algorithm::kEclat:
    case Algorithm::kDEclat: {
      MineResult result;
      baselines::BaselineStats stats;
      const auto miner = algorithm == Algorithm::kEclat
                             ? baselines::mine_eclat
                             : baselines::mine_declat;
      miner(db, min_support, collect_into(result.itemsets), &stats,
            control);
      result.build_seconds = stats.build_seconds;
      result.mine_seconds = stats.mine_seconds;
      result.structure_bytes = stats.structure_bytes;
      scope.finish(result);
      return result;
    }
    case Algorithm::kBruteForce: {
      MineResult result;
      Timer timer;
      baselines::mine_brute_force(db, min_support,
                                  collect_into(result.itemsets));
      result.mine_seconds = timer.seconds();
      scope.finish(result);
      return result;
    }
  }
  PLT_ASSERT(false, "unknown algorithm");
  return {};
}

}  // namespace

MineResult mine(const tdb::Database& db, Count min_support,
                Algorithm algorithm, const MineOptions& options) {
  PLT_ASSERT(min_support >= 1, "min_support must be >= 1");
  // The planner is per-mine (it captures the kernel tables and, on the
  // facade path, the view's partition stats).
  std::optional<Planner> planner;
  if (options.plan == PlanMode::kAdaptive) planner.emplace(options.plan_config);
  // Every mining path funnels through here, so this one wrapper gives all
  // fifteen algorithms their root spans: "mine" > "<algorithm-name>" >
  // (whatever the path records below — the baselines stay coarse, the PLT
  // paths add build/rank-loop/projection detail).
  obs::AutoSession trace_session;
  MineResult result;
  {
    PLT_SPAN("mine");
    obs::Span algorithm_span(algorithm_name(algorithm));
    result = mine_impl(db, min_support, algorithm, options,
                       planner ? &*planner : nullptr);
    // status_counter_name maps every MineStatus onto a registered
    // status.* literal. plt-lint: allow(span-registry)
    PLT_TRACE_COUNT(status_counter_name(result.status), 1);
    PLT_TRACE_COUNT("itemsets-total", result.itemsets.size());
  }
  result.trace = trace_session.finish();
  return result;
}

}  // namespace plt::core
