#include "core/miner.hpp"

#include "baselines/ais.hpp"
#include "baselines/apriori.hpp"
#include "baselines/brute.hpp"
#include "baselines/dic.hpp"
#include "baselines/partition_alg.hpp"
#include "baselines/eclat.hpp"
#include "baselines/fpgrowth.hpp"
#include "baselines/hmine.hpp"
#include "core/builder.hpp"
#include "core/conditional.hpp"
#include "core/topdown.hpp"
#include "obs/trace.hpp"
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

MineResult mine_plt_family(const tdb::Database& db, Count min_support,
                           Algorithm algorithm, const MineOptions& options) {
  MineResult result;
  Timer build_timer;
  RankedView view = build_ranked_view(db, min_support, options.item_order);

  switch (algorithm) {
    case Algorithm::kPltConditional:
    case Algorithm::kPltConditionalNoFilter: {
      if (view.alphabet() == 0) break;
      const auto max_rank = static_cast<Rank>(view.alphabet());
      // The tree is the whole top-level working set: Algorithm 3 reads it
      // without growing it, so its size is the budget's base.
      const TreeView tree = build_tree(view.db, max_rank);
      result.build_seconds = build_timer.seconds();
      result.structure_bytes = tree.memory_usage();
      Timer mine_timer;
      ConditionalOptions cond;
      cond.filter_conditional_items =
          (algorithm == Algorithm::kPltConditional);
      std::vector<Item> item_of(max_rank);
      for (Rank r = 1; r <= max_rank; ++r) item_of[r - 1] = view.item_of(r);
      ProjectionEngine engine;
      engine.set_control(options.control, result.structure_bytes);
      engine.mine(tree, item_of, min_support, result.itemsets, cond);
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
      mine_topdown(view, min_support, collect_into(result.itemsets),
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
                     Algorithm algorithm, const MineOptions& options) {
  const MiningControl* control = options.control;
  switch (algorithm) {
    case Algorithm::kPltConditional:
    case Algorithm::kPltConditionalNoFilter:
    case Algorithm::kPltTopDownCanonical:
    case Algorithm::kPltTopDownSweep: {
      return mine_plt_family(db, min_support, algorithm, options);
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
      return result;
    }
    case Algorithm::kBruteForce: {
      MineResult result;
      Timer timer;
      baselines::mine_brute_force(db, min_support,
                                  collect_into(result.itemsets));
      result.mine_seconds = timer.seconds();
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
  // Every mining path funnels through here, so this one wrapper gives all
  // fifteen algorithms their root spans: "mine" > "<algorithm-name>" >
  // (whatever the path records below — the baselines stay coarse, the PLT
  // paths add build/rank-loop/projection detail).
  const ResilienceScope scope(options.control);
  PLT_SPAN("mine");
  obs::Span algorithm_span(algorithm_name(algorithm));
  MineResult result = mine_impl(db, min_support, algorithm, options);
  result.resilience = scope.deltas();
  if (options.control != nullptr) {
    result.status = options.control->status();
    if (result.status == MineStatus::kBudgetExceeded)
      result.degradation_hint =
          "memory budget exceeded: raise min_support or the memory budget";
  }
  // status_counter_name maps every MineStatus onto a registered status.*
  // literal. plt-lint: allow(span-registry)
  PLT_TRACE_COUNT(status_counter_name(result.status), 1);
  PLT_TRACE_COUNT("itemsets-total", result.itemsets.size());
  return result;
}

}  // namespace plt::core
