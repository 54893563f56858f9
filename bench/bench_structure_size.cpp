// E1 — structure sizes: "PLT ... applicable to compression and indexing
// techniques, which makes PLT suitable for supporting large databases"
// (paper §1, §6). Compares, across sparse and dense workloads:
//   raw horizontal database bytes | PLT in-memory | PLT varint-serialized |
//   FP-tree in-memory | distinct PLT vectors vs FP-tree nodes.
#include <iostream>

#include "baselines/fpgrowth.hpp"
#include "compress/codec.hpp"
#include "core/builder.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/memory.hpp"

int main(int argc, char** argv) {
  using namespace plt;
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args)) return 2;
  harness::TraceScope trace_scope(args);
  const double scale = args.get_double("scale", 1.0);

  harness::print_banner(std::cout, "E1", "structure size & compression",
                        "sections 1 and 6 (compression/indexing claim)");

  Table table({"dataset", "minsup", "raw DB", "PLT mem", "PLT varint",
               "ratio", "FP-tree mem", "PLT vectors", "FP nodes"});

  const struct {
    const char* dataset;
    double minsup_frac;
  } cases[] = {
      {"quest-sparse", 0.002},
      {"quest-wide", 0.005},
      {"chess-like", 0.30},
      {"mushroom-like", 0.05},
      {"clickstream", 0.002},
  };

  for (const auto& c : cases) {
    const auto db = harness::scaled_dataset(c.dataset, scale);
    const Count minsup = harness::absolute_support(db, c.minsup_frac);

    const auto built = core::build_from_database(db, minsup);
    const std::size_t raw = compress::raw_database_bytes(db);
    const std::size_t plt_mem = built.plt.memory_usage();
    const std::size_t plt_wire = compress::encode_plt(built.plt).size();

    std::size_t fp_nodes = 0;
    const std::size_t fp_mem =
        baselines::fptree_size_bytes(db, minsup, &fp_nodes);

    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.2fx",
                  static_cast<double>(raw) /
                      static_cast<double>(plt_wire ? plt_wire : 1));
    table.add_row({c.dataset, std::to_string(minsup), format_bytes(raw),
                   format_bytes(plt_mem), format_bytes(plt_wire), ratio,
                   format_bytes(fp_mem),
                   std::to_string(built.plt.num_vectors()),
                   std::to_string(fp_nodes)});
  }
  std::cout << table.to_text()
            << "\nratio = raw DB bytes / varint-serialized PLT bytes.\n"
               "Expected shape: gap-coding makes the serialized PLT several\n"
               "times smaller than the raw database on every workload, and\n"
               "the PLT holds one entry per *distinct* transaction versus\n"
               "an order of magnitude more FP-tree nodes; duplicate collapse\n"
               "(vectors << transactions) additionally appears on short\n"
               "dense rows (see the E6 dense fixture and E11).\n";
  return 0;
}
