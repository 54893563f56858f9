// E11 — mining from the serialized blob (§1/§6's large-database claim made
// operational): one checked pass over the varint blob builds the physical
// prefix tree, and Algorithm 3's rank loop mines it exactly as the
// in-memory path does. Compares against fully in-memory mining and reports
// the blob, the table-form PLT and the tree side by side. Exits 1 if the
// two paths disagree on any row.
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

  Table table({"dataset", "minsup", "blob", "in-mem PLT", "tree",
               "ooc mine", "in-mem mine", "frequent", "identical"});
  bool all_identical = true;

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

    const bool identical =
        core::FrequentItemsets::equal(ooc_mined, std::move(mem_mined));
    all_identical = all_identical && identical;
    table.add_row(
        {c.dataset, std::to_string(minsup), format_bytes(blob.size()),
         format_bytes(built.plt.memory_usage()),
         format_bytes(stats.peak_overlay_bytes),
         format_duration(ooc_seconds), format_duration(mem_seconds),
         std::to_string(ooc_mined.size()), identical ? "yes" : "NO"});
  }
  std::cout << table.to_text();
  std::cout << "\nExpected shape: identical itemsets; the blob is several\n"
               "times smaller than the in-memory PLT. The blob path holds\n"
               "the same physical tree the in-memory mine does (larger or\n"
               "smaller than the table-form PLT, by dataset), and its mine\n"
               "time is close to the in-memory one: it decodes the blob\n"
               "where the in-memory path builds from the database. The blob\n"
               "is the compact form to store and ship, the tree the form to\n"
               "mine.\n";
  if (!all_identical) {
    std::cerr << "bench_ooc_mining: blob-path itemsets differ from the "
                 "in-memory mine\n";
    return 1;
  }
  return 0;
}
