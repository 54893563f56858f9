// E8 — rank-ordering ablation (design choice called out in DESIGN.md): the
// paper fixes "a lexicographic order" for Rank; FIMI-era systems order items
// by frequency instead. This bench measures how the ordering changes the
// PLT's size (distinct vectors, bytes) and the conditional mining time,
// while the mined itemsets stay identical.
#include <iostream>

#include "compress/codec.hpp"
#include "core/builder.hpp"
#include "core/miner.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace plt;
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args)) return 2;
  harness::TraceScope trace_scope(args);
  const double scale = args.get_double("scale", 1.0);

  harness::print_banner(std::cout, "E8", "rank-ordering ablation",
                        "section 4.1 (Rank function definition)");

  Table table({"dataset", "order", "vectors", "PLT mem", "PLT varint",
               "build", "mine", "frequent"});
  const struct {
    tdb::ItemOrder order;
    const char* name;
  } orders[] = {
      {tdb::ItemOrder::kById, "by-id (paper)"},
      {tdb::ItemOrder::kByFreqAscending, "freq-ascending"},
      {tdb::ItemOrder::kByFreqDescending, "freq-descending"},
  };

  for (const char* dataset : {"quest-sparse", "mushroom-like"}) {
    const auto db = harness::scaled_dataset(dataset, scale * 0.5);
    const Count minsup = harness::absolute_support(
        db, std::string(dataset) == "quest-sparse" ? 0.005 : 0.25);

    std::optional<core::FrequentItemsets> reference;
    for (const auto& [order, name] : orders) {
      Timer build_timer;
      const auto view = core::build_ranked_view(db, minsup, order);
      const auto plt = core::build_plt(
          view.db, static_cast<Rank>(std::max<std::size_t>(
                       1, view.alphabet())));
      const double build = build_timer.seconds();

      core::MineOptions options;
      options.item_order = order;
      Timer mine_timer;
      auto result = core::mine(db, minsup, core::Algorithm::kPltConditional,
                               options);
      const double mine_time = mine_timer.seconds();

      if (!reference) {
        reference = result.itemsets;
      } else if (!core::FrequentItemsets::equal(*reference,
                                                result.itemsets)) {
        std::cerr << "ablation changed the answer — bug!\n";
        return 1;
      }
      table.add_row({dataset, name, std::to_string(plt.num_vectors()),
                     format_bytes(plt.memory_usage()),
                     format_bytes(compress::encode_plt(plt).size()),
                     format_duration(build), format_duration(mine_time),
                     std::to_string(result.itemsets.size())});
    }
  }
  std::cout << table.to_text();
  std::cout << "\nExpected shape: identical itemset counts for every order;\n"
               "frequency-descending ranks put popular items in low ranks,\n"
               "shrinking position gaps and hence the varint encoding, and\n"
               "usually reducing distinct-vector counts on skewed data.\n";
  return 0;
}
