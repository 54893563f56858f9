// E11 — out-of-core-style mining from the serialized blob (the indexing
// claim of §1/§6 made operational): conditional mining where the base
// vectors stream from the varint blob via the sum-bucket index and only the
// prefix overlay lives in memory. Compares against fully in-memory mining
// and reports the working-set sizes.
#include <iostream>

#include "compress/codec.hpp"
#include "compress/ooc_miner.hpp"
#include "core/builder.hpp"
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

  harness::print_banner(std::cout, "E11", "mining from the serialized blob",
                        "sections 1/6 (indexing for large databases)");

  Table table({"dataset", "minsup", "blob", "in-mem PLT", "overlay peak",
               "ooc mine", "in-mem mine", "frequent", "identical"});

  const struct {
    const char* dataset;
    double minsup_frac;
  } cases[] = {
      {"quest-sparse", 0.005},
      {"mushroom-like", 0.25},
      {"clickstream", 0.004},
  };

  for (const auto& c : cases) {
    const auto db = harness::scaled_dataset(c.dataset, scale * 0.5);
    const Count minsup = harness::absolute_support(db, c.minsup_frac);
    const auto built = core::build_from_database(db, minsup);
    if (built.view.alphabet() == 0) continue;
    const auto blob = compress::encode_plt(built.plt);
    std::vector<Item> item_of(built.view.alphabet());
    for (Rank r = 1; r <= built.view.alphabet(); ++r)
      item_of[r - 1] = built.view.item_of(r);

    core::FrequentItemsets ooc_mined;
    compress::OocStats stats;
    Timer ooc_timer;
    compress::mine_from_blob(blob, item_of, minsup,
                             core::collect_into(ooc_mined), &stats);
    const double ooc_seconds = ooc_timer.seconds();

    Timer mem_timer;
    auto mem_mined =
        core::mine(db, minsup, core::Algorithm::kPltConditional).itemsets;
    const double mem_seconds = mem_timer.seconds();

    table.add_row(
        {c.dataset, std::to_string(minsup), format_bytes(blob.size()),
         format_bytes(built.plt.memory_usage()),
         format_bytes(stats.peak_overlay_bytes),
         format_duration(ooc_seconds), format_duration(mem_seconds),
         std::to_string(ooc_mined.size()),
         core::FrequentItemsets::equal(ooc_mined, std::move(mem_mined))
             ? "yes"
             : "NO"});
  }
  std::cout << table.to_text();
  std::cout << "\nExpected shape: identical itemsets; the blob is several\n"
               "times smaller than the in-memory structure and the resident\n"
               "overlay (re-inserted prefixes only) stays below the full\n"
               "PLT footprint, at a modest decode-time overhead — i.e. the\n"
               "index makes the structure minable without residing in\n"
               "memory, which is the paper's 'large databases' argument.\n";
  return 0;
}
