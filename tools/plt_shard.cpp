// plt-shard — shard-parallel frequent-itemset mining across processes.
//
// Coordinator (default mode): splits the dataset into rank-window shards
// over one shared PLT3 blob, fans out one worker process per shard,
// supervises them (dead or timed-out workers are relaunched and resume
// from their rank-granular checkpoint logs), and merges the logs into the
// single-process emission order.
//
//   plt-shard --dataset quest-sparse --minsup-frac 0.005 --workers 4 \
//             --dir /tmp/job [--timeout-ms N]
//             [--retries N] [--launch-prefix "taskset -c 0-3"]
//
// Worker mode (what the coordinator execs; also runnable by hand or over
// ssh against a shipped job directory):
//
//   plt-shard --worker --dir /tmp/job --shard K
//
// Split-only + external launch: --emit-commands writes the job directory
// and prints one worker command line per shard instead of launching;
// --merge replays the finished logs of an existing job directory.
//
// Flags are strict in every mode: an unknown flag or any positional
// argument is a usage error (exit 2), never silently ignored.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/miner.hpp"
#include "datagen/registry.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/experiment.hpp"
#include "harness/tracing.hpp"
#include "shard/coordinator.hpp"
#include "shard/worker.hpp"
#include "tdb/io.hpp"
#include "util/args.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace plt;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " (--input FILE | --dataset NAME) --dir DIR\n"
      << "  [--minsup N | --minsup-frac F] [--workers N] [--scale S]\n"
      << "  [--timeout-ms N] [--retries N]\n"
      << "  [--launch-prefix \"CMD ARGS\"] [--emit-commands] [--limit N]\n"
      << "  [--trace FILE] [--trace-folded FILE]\n"
      << "or: " << argv0 << " --worker --dir DIR --shard K\n"
      << "or: " << argv0 << " --merge --dir DIR [--limit N]\n"
      << "datasets: ";
  for (const auto& spec : datagen::dataset_registry())
    std::cerr << spec.name << ' ';
  std::cerr << '\n';
  return 2;
}

// The coordinator's flags. Worker and merge mode read fewer and check
// against lists of their own, so no mode silently ignores a flag.
const char* const kKnownFlags[] = {
    "input", "dataset", "scale", "minsup", "minsup-frac", "dir", "workers",
    "timeout-ms", "retries", "launch-prefix", "emit-commands", "limit",
    "backend", "trace", "trace-folded", "worker", "merge"};

// Flags that take no value: the word after one is a positional argument.
const char* const kBoolFlags[] = {"worker", "merge", "emit-commands"};

// Worker mode reads nothing else: the job directory carries the rest, and
// a --trace or --backend given here would do nothing.
const char* const kWorkerFlags[] = {"worker", "dir", "shard"};

// Merge mode replays a finished job: the manifest fixes the data, support
// and windows, so only the output and process-wide flags apply.
const char* const kMergeFlags[] = {"merge",   "dir",   "limit",
                                   "backend", "trace", "trace-folded"};

// The path the coordinator re-execs for workers: this binary.
std::string self_path(const char* argv0) {
  char buffer[4096];
  const ssize_t n =
      ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) return std::string(buffer, static_cast<std::size_t>(n));
  return argv0;
}

void print_report(const shard::ShardReport& report, std::size_t itemsets) {
  std::cerr << itemsets << " frequent itemsets from " << report.shards
            << " shards (" << report.attempts << " launches, "
            << report.relaunches << " relaunches)\n"
            << "  split " << format_duration(report.split_seconds)
            << "  mine " << format_duration(report.mine_seconds)
            << "  merge " << format_duration(report.merge_seconds)
            << "  blob " << format_bytes(report.blob_bytes) << '\n';
  if (report.shard_wall.count() > 0)
    std::cerr << "  shard wall: p50 "
              << format_duration(
                     static_cast<double>(report.shard_wall.percentile_ns(0.5)) /
                     1e9)
              << "  max "
              << format_duration(
                     static_cast<double>(report.shard_wall.percentile_ns(1.0)) /
                     1e9)
              << '\n';
}

void print_itemsets(const core::FrequentItemsets& itemsets,
                    std::size_t limit) {
  core::FrequentItemsets sorted = itemsets;
  sorted.canonicalize();
  Table table({"itemset", "support"});
  const std::size_t n = limit ? std::min(limit, sorted.size())
                              : sorted.size();
  Itemset scratch;
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const Item> row = sorted.itemset(i, scratch);
    std::ostringstream items;
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j) items << ' ';
      items << row[j];
    }
    table.add_row({items.str(), std::to_string(sorted.support(i))});
  }
  std::cout << table.to_text();
  if (n < sorted.size())
    std::cout << "... (" << sorted.size() - n << " more; use --limit 0)\n";
}

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  for (std::string word; in >> word;) words.push_back(word);
  return words;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, kBoolFlags);
  const bool worker = args.get_bool("worker", false);
  const bool merge = !worker && args.get_bool("merge", false);
  if (const std::string key = worker  ? args.first_unknown(kWorkerFlags)
                              : merge ? args.first_unknown(kMergeFlags)
                                      : args.first_unknown(kKnownFlags);
      !key.empty()) {
    std::cerr << "error: unknown flag --" << key << '\n';
    return usage(argv[0]);
  }
  if (!args.positional().empty()) {
    std::cerr << "error: unexpected argument " << args.positional().front()
              << '\n';
    return usage(argv[0]);
  }
  const std::string dir = args.get("dir", "");

  // -- worker mode: one shard, then exit with the worker's status --
  if (worker) {
    if (dir.empty() || !args.has("shard")) return usage(argv[0]);
    return shard::run_worker(
        dir, static_cast<std::size_t>(args.get_int("shard", 0)));
  }

  if (!harness::apply_backend_flag(args, /*announce=*/false)) return 2;
  harness::TraceScope trace(args);
  const auto limit = static_cast<std::size_t>(args.get_int("limit", 20));
  if (dir.empty()) return usage(argv[0]);

  // -- merge mode: replay the logs of a finished job directory --
  if (merge) {
    try {
      core::FrequentItemsets itemsets;
      shard::ShardReport report;
      Timer merge_timer;
      shard::merge_job(dir, core::collect_into(itemsets), &report);
      report.merge_seconds = merge_timer.seconds();
      print_report(report, itemsets.size());
      print_itemsets(itemsets, limit);
      return 0;
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << '\n';
      return 1;
    }
  }

  // -- coordinator --
  tdb::Database db;
  try {
    if (args.has("input")) {
      db = tdb::read_fimi_file(args.get("input", ""));
    } else if (args.has("dataset")) {
      db = harness::scaled_dataset(args.get("dataset", ""),
                                   args.get_double("scale", 1.0));
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  if (db.empty()) {
    std::cerr << "error: empty database\n";
    return 1;
  }
  const Count minsup =
      args.has("minsup-frac")
          ? harness::absolute_support(db, args.get_double("minsup-frac", 0.01))
          : static_cast<Count>(args.get_int("minsup", 2));
  if (minsup < 1) {
    std::cerr << "error: minsup must be >= 1\n";
    return 1;
  }

  shard::ShardOptions options;
  options.dir = dir;
  options.workers = static_cast<std::size_t>(args.get_int("workers", 2));
  options.worker_binary = self_path(argv[0]);
  options.launch_prefix = split_words(args.get("launch-prefix", ""));
  options.max_launch_attempts =
      static_cast<std::size_t>(args.get_int("retries", 2)) + 1;
  if (args.has("timeout-ms"))
    options.attempt_timeout =
        std::chrono::milliseconds(args.get_int("timeout-ms", 0));

  try {
    if (args.get_bool("emit-commands", false)) {
      // Split only: write the job directory, print one command per shard
      // for an external (ssh/slurm-style) launcher, merge later.
      const shard::Manifest manifest =
          shard::prepare_job(db, minsup, options);
      for (const shard::ShardSpec& spec : manifest.shards) {
        const auto command = shard::worker_command(options, spec.shard_id);
        for (std::size_t i = 0; i < command.size(); ++i)
          std::cout << (i ? " " : "") << command[i];
        std::cout << '\n';
      }
      std::cerr << manifest.shards.size() << " shards over max rank "
                << manifest.max_rank << "; merge with: " << argv[0]
                << " --merge --dir " << dir << '\n';
      return 0;
    }

    core::FrequentItemsets itemsets;
    shard::ShardReport report;
    const core::MineStatus status = shard::mine_sharded(
        db, minsup, core::collect_into(itemsets), options, &report);
    if (status != core::MineStatus::kCompleted) {
      std::cerr << "error: sharded mine stopped: " << core::to_string(status)
                << '\n';
      return 1;
    }
    print_report(report, itemsets.size());
    print_itemsets(itemsets, limit);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
