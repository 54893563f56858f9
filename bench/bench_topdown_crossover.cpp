// E4 — top-down vs conditional crossover: "the top down approach does not
// employ the anti-monotone property, which makes it suitable for situations
// where a very low minimum support is provided" (paper §6). On short-dense
// data the top-down expansion cost is support-independent while the
// conditional cost grows as the threshold falls — this bench sweeps the
// threshold down to 1 and reports where (if anywhere) top-down wins.
// Also ablates the two top-down variants (canonical vs paper-staged sweep).
// Emits BENCH_topdown_crossover.json (--out FILE): per-cell timings with the
// host stamp and the dataset statistics, plus the winner per support level
// — the evidence that pooled conditional wins every cell with measurable
// work, so top-down stays an explicit Algorithm and is never chosen on a
// caller's behalf.
#include <fstream>
#include <iostream>

#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "tdb/stats.hpp"
#include "util/args.hpp"

namespace {

using namespace plt;

void write_cells(std::ofstream& out, const std::vector<harness::Cell>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const harness::Cell& c = cells[i];
    out << "      {\"minsup\": " << c.min_support << ", \"algorithm\": \""
        << core::algorithm_name(c.algorithm)
        << "\", \"total_seconds\": " << c.total_seconds
        << ", \"frequent_itemsets\": " << c.frequent_itemsets
        << ", \"max_length\": " << c.max_length
        << ", \"failed\": " << (c.failed ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << '\n';
  }
}

// Fastest non-failed algorithm per support level, with the ratio the
// conditional strategy pays there — the crossover gap that keeps top-down
// expansion an explicit Algorithm.
void write_winners(std::ofstream& out,
                   const std::vector<harness::Cell>& cells) {
  std::vector<Count> supports;
  for (const harness::Cell& c : cells)
    if (supports.empty() || supports.back() != c.min_support)
      supports.push_back(c.min_support);
  for (std::size_t i = 0; i < supports.size(); ++i) {
    const harness::Cell* best = nullptr;
    const harness::Cell* conditional = nullptr;
    for (const harness::Cell& c : cells) {
      if (c.min_support != supports[i]) continue;
      if (c.algorithm == core::Algorithm::kPltConditional) conditional = &c;
      if (c.failed) continue;
      if (best == nullptr || c.total_seconds < best->total_seconds) best = &c;
    }
    if (best == nullptr) continue;
    out << "      {\"minsup\": " << supports[i] << ", \"winner\": \""
        << core::algorithm_name(best->algorithm)
        << "\", \"best_seconds\": " << best->total_seconds;
    if (conditional != nullptr && best->total_seconds > 0)
      out << ", \"conditional_vs_best\": "
          << conditional->total_seconds / best->total_seconds;
    out << "}" << (i + 1 < supports.size() ? "," : "") << '\n';
  }
}

void write_json(const std::string& path, double scale,
                const tdb::Stats& stats,
                const std::vector<harness::Cell>& cells,
                const std::vector<harness::Cell>& guard_cells) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"E4\",\n"
      << "  \"title\": \"top-down vs conditional crossover\",\n"
      << "  \"host\": " << harness::host_json() << ",\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"dataset\": {\n"
      << "    \"name\": \"short-dense\",\n"
      << "    \"transactions\": " << stats.transactions << ",\n"
      << "    \"distinct_items\": " << stats.distinct_items << ",\n"
      << "    \"avg_len\": " << stats.avg_len << ",\n"
      << "    \"max_len\": " << stats.max_len << ",\n"
      << "    \"density\": " << stats.density << ",\n"
      << "    \"support_gini\": " << stats.support_gini << "\n  },\n"
      << "  \"rows\": [\n";
  write_cells(out, cells);
  out << "  ],\n  \"winners\": [\n";
  write_winners(out, cells);
  out << "  ],\n  \"guard_rows\": [\n";
  write_cells(out, guard_cells);
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

  harness::print_banner(std::cout, "E4",
                        "top-down vs conditional across the support range",
                        "section 6 (top-down for very low minimum support)");

  const auto db = harness::scaled_dataset("short-dense", scale);
  harness::SweepConfig config;
  config.dataset_name = "short-dense";
  config.db = &db;
  config.supports =
      harness::support_grid(db, {0.5, 0.2, 0.05, 0.01, 0.002, 0.0001});
  config.algorithms = {
      core::Algorithm::kPltConditional,
      core::Algorithm::kPltTopDownCanonical,
      core::Algorithm::kPltTopDownSweep,
  };
  const auto cells = harness::run_sweep(config);
  harness::print_sweep(std::cout, "short-dense", cells);
  harness::print_winners(std::cout, cells);

  // The long-transaction failure mode: the guard must trip rather than blow
  // up memory (documented behaviour, shown here on chess-like data).
  const auto dense = harness::scaled_dataset("chess-like", 0.1 * scale);
  harness::SweepConfig guard;
  guard.dataset_name = "chess-like";
  guard.db = &dense;
  guard.supports = harness::support_grid(dense, {0.05});
  guard.algorithms = {core::Algorithm::kPltTopDownCanonical};
  guard.cross_check = false;
  const auto guard_cells = harness::run_sweep(guard);
  std::cout << '\n';
  harness::print_sweep(std::cout,
                       "long transactions trip the top-down guard",
                       guard_cells);

  write_json(args.get("out", "BENCH_topdown_crossover.json"), scale,
             tdb::compute_stats(db), cells, guard_cells);

  std::cout << "\nExpected shape: top-down pays a near-constant expansion\n"
               "cost across the whole sweep (it enumerates every subset\n"
               "regardless of the threshold), so it loses badly at high\n"
               "support and converges with/overtakes the conditional\n"
               "approach as minsup approaches 1, where the conditional\n"
               "recursion degenerates to enumerating the same subsets plus\n"
               "projection overhead. On long transactions it must refuse\n"
               "(GUARD) instead of exhausting memory.\n";
  return 0;
}
