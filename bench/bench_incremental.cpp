// E10 — incremental maintenance: the PLT is a frequency table, so a
// transaction update is one vector increment/decrement, versus re-running
// the batch construction scan (Algorithm 1). Reports update throughput,
// churn behaviour, and mining-from-maintained-state vs batch equivalence.
#include <iostream>

#include "core/builder.hpp"
#include "core/incremental.hpp"
#include "core/miner.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "util/args.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace plt;
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args)) return 2;
  harness::TraceScope trace_scope(args);
  const double scale = args.get_double("scale", 1.0);

  harness::print_banner(std::cout, "E10", "incremental PLT maintenance",
                        "Algorithm 1 as transaction-level updates");

  Table table({"dataset", "transactions", "bulk load", "adds/s", "removes/s",
               "batch rebuild", "mine(inc)", "mine(batch)", "identical"});

  for (const char* dataset : {"quest-sparse", "short-dense"}) {
    const auto db = harness::scaled_dataset(dataset, scale * 0.5);
    const Count minsup = harness::absolute_support(db, 0.01);
    const Item max_item = db.max_item();

    core::IncrementalPlt inc(max_item);
    Timer load_timer;
    inc.add_all(db);
    const double load_seconds = load_timer.seconds();

    // Churn: remove and re-add the first 2000 transactions.
    const std::size_t churn = std::min<std::size_t>(2000, db.size());
    Timer remove_timer;
    for (std::size_t t = 0; t < churn; ++t) inc.remove(db[t]);
    const double remove_seconds = remove_timer.seconds();
    Timer add_timer;
    for (std::size_t t = 0; t < churn; ++t) inc.add(db[t]);
    const double add_seconds = add_timer.seconds();

    Timer rebuild_timer;
    const auto rebuilt = core::build_from_database(db, minsup);
    const double rebuild_seconds = rebuild_timer.seconds();

    Timer inc_mine_timer;
    const auto inc_mined = inc.mine(minsup);
    const double inc_mine_seconds = inc_mine_timer.seconds();

    Timer batch_mine_timer;
    auto batch_mined =
        core::mine(db, minsup, core::Algorithm::kPltConditional).itemsets;
    const double batch_mine_seconds = batch_mine_timer.seconds();

    const bool identical =
        core::FrequentItemsets::equal(inc_mined, batch_mined);
    const auto rate = [&](double seconds) {
      return std::to_string(static_cast<std::uint64_t>(
          static_cast<double>(churn) / std::max(seconds, 1e-9)));
    };
    table.add_row({dataset, std::to_string(db.size()),
                   format_duration(load_seconds), rate(add_seconds),
                   rate(remove_seconds), format_duration(rebuild_seconds),
                   format_duration(inc_mine_seconds),
                   format_duration(batch_mine_seconds),
                   identical ? "yes" : "NO"});
  }
  std::cout << table.to_text();
  std::cout << "\nExpected shape: single-transaction updates run at millions\n"
               "per second (one hash upsert each) — refreshing the structure\n"
               "after small deltas is orders of magnitude cheaper than the\n"
               "batch rebuild; mining from the maintained state is identical\n"
               "to mining from scratch.\n";
  return 0;
}
