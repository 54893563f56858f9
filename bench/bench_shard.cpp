// E21 — shard-parallel mining across processes: the paper's partition
// independence (§4.1/§6) taken to its process-level conclusion. One shared
// PLT3 blob, N worker processes each mining a rank window, a coordinator
// merging the checkpoint logs back into single-process emission order.
// Reports measured-vs-perfect scaling of the worker phase against a
// single-process OOC mine of the same blob, with the coordinator's own
// overhead (split = build+encode+stats, merge = log replay) broken out
// separately, plus the per-shard wall-time distribution as a latency
// histogram. Emits BENCH_shard.json (--out FILE). Exits 1 if any worker
// count mines a different itemset set than the single-process mine.
//
// NUMA note: the coordinator launches plain child processes; on multi-
// socket hosts pin each worker with --launch-prefix (e.g.
// "numactl --cpunodebind=0 --membind=0" or "taskset -c 0-7") so the tree a
// shard builds stays local to the socket that mines its window.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "compress/ooc_miner.hpp"
#include "core/builder.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "shard/coordinator.hpp"
#include "util/args.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace plt;
namespace fs = std::filesystem;

struct Row {
  std::size_t workers = 0;
  shard::ShardReport report;
  std::size_t itemsets = 0;
  double total_seconds = 0.0;
};

void write_json(const std::string& path, double scale, Count minsup,
                double single_seconds, std::size_t single_itemsets,
                const std::vector<Row>& rows) {
  const double base = rows.empty() ? 0.0 : rows.front().report.mine_seconds;
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"E21\",\n"
      << "  \"title\": \"shard-parallel mining across processes\",\n"
      << "  \"host\": " << harness::host_json() << ",\n"
      << "  \"dataset\": \"quest-sparse\",\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"minsup\": " << minsup << ",\n"
      << "  \"single_process\": {\"mine_seconds\": " << single_seconds
      << ", \"frequent_itemsets\": " << single_itemsets << "},\n"
      << "  \"numa_note\": \"pin workers via --launch-prefix, e.g. "
         "'numactl --cpunodebind=0 --membind=0' or 'taskset -c 0-7', to "
         "keep each shard's tree socket-local\",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double speedup =
        r.report.mine_seconds > 0 ? base / r.report.mine_seconds : 0.0;
    out << "    {\"workers\": " << r.workers
        << ", \"shards\": " << r.report.shards
        << ", \"split_seconds\": " << r.report.split_seconds
        << ", \"mine_seconds\": " << r.report.mine_seconds
        << ", \"merge_seconds\": " << r.report.merge_seconds
        << ", \"total_seconds\": " << r.total_seconds
        << ", \"coordinator_overhead_seconds\": "
        << r.report.split_seconds + r.report.merge_seconds
        << ", \"speedup_vs_one_worker\": " << speedup
        << ", \"perfect_speedup\": " << r.workers
        << ", \"efficiency\": "
        << (r.workers > 0 ? speedup / static_cast<double>(r.workers) : 0.0)
        << ", \"launches\": " << r.report.attempts
        << ", \"relaunches\": " << r.report.relaunches
        << ", \"blob_bytes\": " << r.report.blob_bytes
        << ", \"frequent_itemsets\": " << r.itemsets
        << ", \"shard_wall\": " << r.report.shard_wall.to_json() << "}"
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

  harness::print_banner(std::cout, "E21",
                        "shard-parallel mining across processes",
                        "sections 4.1/6 (independent partitions -> shards)");

  const auto db = harness::scaled_dataset("quest-sparse", scale);
  const Count minsup = harness::absolute_support(db, 0.005);

  // Single-process reference: the exact OOC walk the workers run, in this
  // process with no coordinator — the floor any sharded run is measured
  // against, and the itemsets every sharded run must reproduce.
  double single_seconds = 0.0;
  core::FrequentItemsets single;
  {
    const auto built = core::build_from_database(db, minsup);
    const auto blob = compress::encode_plt(built.plt);
    std::vector<Item> item_of(built.view.alphabet());
    for (Rank r = 1; r <= built.view.alphabet(); ++r)
      item_of[r - 1] = built.view.item_of(r);
    Timer timer;
    compress::mine_from_blob(blob, item_of, minsup,
                             core::collect_into(single));
    single_seconds = timer.seconds();
  }
  const std::size_t single_itemsets = single.size();
  bool all_identical = true;

  Table table({"workers", "split", "mine", "merge", "total", "speedup",
               "efficiency", "shard p50", "shard max", "frequent"});
  std::vector<Row> rows;
  const fs::path job_root =
      fs::temp_directory_path() / "plt_bench_shard_jobs";
  for (const std::size_t workers : {1u, 2u, 4u}) {
    Row row;
    row.workers = workers;
    shard::ShardOptions options;
    options.workers = workers;
    options.dir = (job_root / std::to_string(workers)).string();
    options.worker_binary = PLT_SHARD_BIN;
    fs::remove_all(options.dir);

    core::FrequentItemsets sharded;
    Timer total;
    shard::mine_sharded(db, minsup, core::collect_into(sharded), options,
                        &row.report);
    row.total_seconds = total.seconds();
    const std::size_t itemsets = sharded.size();
    row.itemsets = itemsets;
    fs::remove_all(options.dir);
    if (!core::FrequentItemsets::equal(single, std::move(sharded))) {
      std::cerr << "DISAGREEMENT: " << workers
                << " workers mined different itemsets than one process\n";
      all_identical = false;
    }

    const double base = rows.empty() ? row.report.mine_seconds
                                     : rows.front().report.mine_seconds;
    const double speedup =
        row.report.mine_seconds > 0 ? base / row.report.mine_seconds : 0.0;
    table.add_row(
        {std::to_string(workers), format_duration(row.report.split_seconds),
         format_duration(row.report.mine_seconds),
         format_duration(row.report.merge_seconds),
         format_duration(row.total_seconds),
         std::to_string(speedup) + "x",
         std::to_string(speedup / static_cast<double>(workers)),
         format_duration(
             static_cast<double>(row.report.shard_wall.percentile_ns(0.5)) /
             1e9),
         format_duration(
             static_cast<double>(row.report.shard_wall.percentile_ns(1.0)) /
             1e9),
         std::to_string(itemsets)});
    rows.push_back(std::move(row));
  }
  fs::remove_all(job_root);
  std::cout << table.to_text();
  std::cout << "single-process OOC mine (no coordinator): "
            << format_duration(single_seconds) << ", " << single_itemsets
            << " itemsets\n";

  write_json(args.get("out", "BENCH_shard.json"), scale, minsup,
             single_seconds, single_itemsets, rows);

  std::cout << "\nExpected shape: every worker count yields the same\n"
               "itemsets. Each worker builds the blob's whole tree, then\n"
               "mines only its window, so the worker phase shrinks toward\n"
               "build + mine/N on multi-core hosts (bounded by the heaviest\n"
               "shard, so the weighted split matters), while split and\n"
               "merge stay small and constant — that pair is the\n"
               "coordinator's whole overhead. On one core the sweep shows\n"
               "process-launch overhead instead of speedup. Pin workers per\n"
               "the NUMA note on multi-socket machines.\n";
  if (!all_identical) return 1;
  return 0;
}
