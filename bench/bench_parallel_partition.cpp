// E7 — partitioned parallel mining: the paper's §6 claim that the PLT's
// partition criteria split the mining into independent per-item tasks.
// Reports thread-count scaling of the partition miner against the
// sequential conditional miner, verifying exact agreement. On a single
// hardware core this demonstrates decomposition overhead rather than
// speedup; the table reports both so the shape is interpretable anywhere.
// Emits BENCH_parallel_partition.json (--out FILE): per-run timings plus
// the per-rank latency histogram each parallel run merged from its workers.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/miner.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "obs/histogram.hpp"
#include "parallel/partition_miner.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

namespace {

using namespace plt;

struct Row {
  std::string dataset;
  std::string mode;  // "seq" or a thread count
  double build_seconds = 0.0;
  double mine_seconds = 0.0;
  std::size_t structure_bytes = 0;
  std::size_t frequent_itemsets = 0;
  bool agrees = true;
  std::string rank_latency_json;  // empty for the sequential baseline
};

void write_json(const std::string& path, double scale,
                const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"E7\",\n"
      << "  \"title\": \"partitioned parallel mining\",\n"
      << "  \"scale\": " << scale << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"dataset\": \"" << r.dataset << "\", \"mode\": \""
        << r.mode << "\", \"build_seconds\": " << r.build_seconds
        << ", \"mine_seconds\": " << r.mine_seconds
        << ", \"structure_bytes\": " << r.structure_bytes
        << ", \"frequent_itemsets\": " << r.frequent_itemsets
        << ", \"agrees\": " << (r.agrees ? "true" : "false");
    if (!r.rank_latency_json.empty())
      out << ", \"rank_latency\": " << r.rank_latency_json;
    out << "}" << (i + 1 < rows.size() ? "," : "") << '\n';
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

  harness::print_banner(std::cout, "E7", "partitioned parallel mining",
                        "section 6 (partition criteria -> separate tasks)");

  Table table({"dataset", "threads", "build", "mine", "total", "structure",
               "frequent", "agrees"});
  std::vector<Row> rows;
  for (const char* dataset : {"quest-sparse", "mushroom-like"}) {
    const auto db = harness::scaled_dataset(dataset, scale * 0.5);
    const Count minsup = harness::absolute_support(
        db, std::string(dataset) == "quest-sparse" ? 0.005 : 0.25);

    const auto sequential =
        core::mine(db, minsup, core::Algorithm::kPltConditional);
    table.add_row({dataset, "seq",
                   format_duration(sequential.build_seconds),
                   format_duration(sequential.mine_seconds),
                   format_duration(sequential.build_seconds +
                                   sequential.mine_seconds),
                   format_bytes(sequential.structure_bytes),
                   std::to_string(sequential.itemsets.size()), "-"});
    rows.push_back({dataset, "seq", sequential.build_seconds,
                    sequential.mine_seconds, sequential.structure_bytes,
                    sequential.itemsets.size(), true, ""});

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      obs::LatencyHistogram rank_latency;
      parallel::ParallelOptions options;
      options.threads = threads;
      options.rank_latency = &rank_latency;
      const auto result = parallel::mine_parallel(db, minsup, options);
      const bool agrees = core::FrequentItemsets::equal(
          sequential.itemsets, result.itemsets);
      table.add_row({dataset, std::to_string(threads),
                     format_duration(result.build_seconds),
                     format_duration(result.mine_seconds),
                     format_duration(result.build_seconds +
                                     result.mine_seconds),
                     format_bytes(result.structure_bytes),
                     std::to_string(result.itemsets.size()),
                     agrees ? "yes" : "NO"});
      rows.push_back({dataset, std::to_string(threads),
                      result.build_seconds, result.mine_seconds,
                      result.structure_bytes, result.itemsets.size(), agrees,
                      rank_latency.to_json()});
    }
  }
  std::cout << table.to_text();
  write_json(args.get("out", "BENCH_parallel_partition.json"), scale, rows);
  std::cout << "\nExpected shape: identical itemsets at every thread count;\n"
               "mine time shrinks with threads on multi-core hosts and is\n"
               "flat (plus small pool overhead) on a single core. The\n"
               "partition build pass costs one extra traversal of the\n"
               "database relative to the sequential miner.\n";
  return 0;
}
