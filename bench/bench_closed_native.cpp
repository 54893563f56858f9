// E16 — native closed mining vs mine-everything-then-condense: CHARM
// produces closed itemsets directly from tidsets, while the post-pass
// route (E9) first materializes the full frequent collection. On data that
// condenses hard, the native miner touches a fraction of the output.
// Agreement between the two routes is asserted per row.
#include <iostream>

#include "baselines/charm.hpp"
#include "core/closed.hpp"
#include "core/miner.hpp"
#include "datagen/transforms.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace plt;
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args)) return 2;
  harness::TraceScope trace_scope(args);
  const double scale = args.get_double("scale", 1.0);

  harness::print_banner(std::cout, "E16", "native closed mining (CHARM)",
                        "condensed representations, vertical family");

  Table table({"dataset", "minsup", "frequent", "closed", "charm",
               "mine+postpass", "agree"});

  const struct {
    const char* dataset;
    std::vector<double> fractions;
    bool plant_twins;
  } cases[] = {
      {"mushroom-like", {0.30, 0.20, 0.12}, true},
      {"chess-like", {0.85, 0.75}, true},
      {"quest-sparse", {0.01, 0.005}, false},
  };

  for (const auto& c : cases) {
    auto db = harness::scaled_dataset(c.dataset, scale * 0.5);
    if (c.plant_twins) {
      const Item base = db.max_item();
      db = datagen::add_twin_items(
          db, {{1, base + 1}, {2, base + 2}, {3, base + 3}});
    }
    for (const Count minsup : harness::support_grid(db, c.fractions)) {
      Timer charm_timer;
      core::FrequentItemsets charm_closed;
      baselines::mine_charm(db, minsup, core::collect_into(charm_closed));
      const double charm_seconds = charm_timer.seconds();

      Timer postpass_timer;
      const auto mined =
          core::mine(db, minsup, core::Algorithm::kPltConditional);
      const auto postpass_closed = core::closed_itemsets(mined.itemsets);
      const double postpass_seconds = postpass_timer.seconds();

      const bool agree = core::FrequentItemsets::equal(charm_closed,
                                                       postpass_closed);
      table.add_row({c.dataset, std::to_string(minsup),
                     std::to_string(mined.itemsets.size()),
                     std::to_string(postpass_closed.size()),
                     format_duration(charm_seconds),
                     format_duration(postpass_seconds),
                     agree ? "yes" : "NO"});
    }
  }
  std::cout << table.to_text();
  std::cout << "\nExpected shape: identical closed collections; CHARM's\n"
               "advantage grows with the frequent/closed ratio (twin-planted\n"
               "dense data), while on non-condensing sparse data the\n"
               "post-pass route is competitive because the closure adds\n"
               "nothing to skip.\n";
  return 0;
}
