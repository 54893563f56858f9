// Web-session analysis — the paper's other §1 domain ("web page access
// habits"): mine frequently co-visited page sets from Markov click-stream
// sessions, compare the PLT conditional approach against FP-growth on this
// sparse workload, and mine one page's conditional world in isolation via
// the parallel partition decomposition.
//
//   ./clickstream_sessions [--sessions N] [--minsup-frac F] [--threads T]
#include <iostream>

#include "core/miner.hpp"
#include "datagen/clickstream.hpp"
#include "harness/experiment.hpp"
#include "parallel/partition_miner.hpp"
#include "tdb/stats.hpp"
#include "util/args.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace plt;
  const Args args(argc, argv);

  datagen::ClickstreamConfig cfg;
  cfg.sessions = static_cast<std::size_t>(args.get_int("sessions", 30000));
  cfg.pages = 400;
  cfg.seed = 11;
  const auto db = datagen::generate_clickstream(cfg);
  std::cout << "== web sessions over a " << cfg.pages
            << "-page link graph ==\n"
            << tdb::to_string(tdb::compute_stats(db));

  const Count minsup =
      harness::absolute_support(db, args.get_double("minsup-frac", 0.005));
  std::cout << "\nmining co-visited page sets at minsup " << minsup << "\n\n";

  for (const auto algorithm : {core::Algorithm::kPltConditional,
                               core::Algorithm::kFpGrowth,
                               core::Algorithm::kEclat}) {
    const auto result = core::mine(db, minsup, algorithm);
    std::cout << "  " << core::algorithm_name(algorithm) << ": "
              << result.itemsets.size() << " itemsets, build "
              << format_duration(result.build_seconds) << ", mine "
              << format_duration(result.mine_seconds) << ", structure "
              << format_bytes(result.structure_bytes) << '\n';
  }

  // Partitioned mining: each page's conditional subproblem is independent
  // (the paper's §6 partition criteria) — run them on worker threads.
  parallel::ParallelOptions options;
  options.threads = static_cast<std::size_t>(args.get_int("threads", 4));
  Timer timer;
  const auto partitioned = parallel::mine_parallel(db, minsup, options);
  std::cout << "\n  partitioned (" << options.threads << " threads): "
            << partitioned.itemsets.size() << " itemsets in "
            << format_duration(timer.seconds()) << '\n';

  auto sequential = core::mine(db, minsup, core::Algorithm::kPltConditional);
  std::cout << "  identical to sequential: "
            << core::FrequentItemsets::equal(partitioned.itemsets,
                                             sequential.itemsets)
            << '\n';
  return 0;
}
