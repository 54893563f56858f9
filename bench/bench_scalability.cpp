// E5 — transaction-count scalability at fixed relative support (paper §1/§6:
// "PLT [is] a solution when large databases are being mined"). Runtime and
// structure size should grow near-linearly in |D| for the PLT conditional
// approach; the comparison includes FP-growth and Apriori.
// Emits BENCH_scalability.json (--out FILE): per-cell timings keyed by
// transaction count, the input to the linearity claim.
#include <fstream>
#include <iostream>

#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

namespace {

using namespace plt;

struct SizedCell {
  std::size_t transactions = 0;
  harness::Cell cell;
};

void write_json(const std::string& path, double scale,
                const std::vector<SizedCell>& rows) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"E5\",\n"
      << "  \"title\": \"scalability in |D|\",\n"
      << "  \"dataset\": \"quest-sparse\",\n"
      << "  \"minsup_frac\": 0.005,\n"
      << "  \"scale\": " << scale << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const harness::Cell& c = rows[i].cell;
    out << "    {\"transactions\": " << rows[i].transactions
        << ", \"algorithm\": \"" << core::algorithm_name(c.algorithm)
        << "\", \"build_seconds\": " << c.build_seconds
        << ", \"mine_seconds\": " << c.mine_seconds
        << ", \"total_seconds\": " << c.total_seconds
        << ", \"structure_bytes\": " << c.structure_bytes
        << ", \"frequent_itemsets\": " << c.frequent_itemsets
        << ", \"failed\": " << (c.failed ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace plt;
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args)) return 2;
  harness::TraceScope trace_scope(args);
  const double scale = args.get_double("scale", 1.0);

  harness::print_banner(std::cout, "E5", "scalability in |D|",
                        "sections 1/6 (large databases)");

  Table table({"transactions", "algorithm", "build", "mine", "total",
               "structure", "frequent"});
  std::vector<SizedCell> all_cells;
  for (const double size_scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const auto db =
        harness::scaled_dataset("quest-sparse", size_scale * scale);
    const Count minsup = harness::absolute_support(db, 0.005);
    harness::SweepConfig config;
    config.dataset_name = "quest-sparse";
    config.db = &db;
    config.supports = {minsup};
    config.algorithms = {core::Algorithm::kPltConditional,
                         core::Algorithm::kFpGrowth,
                         core::Algorithm::kApriori};
    const auto cells = harness::run_sweep(config);
    for (const auto& cell : cells) {
      table.add_row({std::to_string(db.size()),
                     core::algorithm_name(cell.algorithm),
                     format_duration(cell.build_seconds),
                     format_duration(cell.mine_seconds),
                     format_duration(cell.total_seconds),
                     format_bytes(cell.structure_bytes),
                     std::to_string(cell.frequent_itemsets)});
      all_cells.push_back({db.size(), cell});
    }
  }
  std::cout << table.to_text();
  write_json(args.get("out", "BENCH_scalability.json"), scale, all_cells);
  std::cout << "\nExpected shape: at fixed relative support, runtime and\n"
               "structure size grow close to linearly with |D| for the\n"
               "projection miners; Apriori grows superlinearly because each\n"
               "level rescans the whole database.\n";
  return 0;
}
