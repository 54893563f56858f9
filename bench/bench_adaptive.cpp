// E20 — adaptive execution planner vs every fixed strategy. The planner
// (core/planner.hpp) reads dataset + rank-partition statistics and picks a
// root strategy and per-subtree strategy/kernel-backend; this bench runs the
// matrix {sparse sweep, dense sweep, top-down regime} × {each fixed
// strategy, adaptive} and checks two things per cell: the adaptive run's
// output is identical to the fixed runs, and its time lands within noise of
// the best fixed strategy. Emits BENCH_adaptive.json (--out FILE) with the
// per-cell winner table, adaptive-vs-best/worst ratios, and the planner's
// decision counters. Exits non-zero on any output mismatch.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <vector>

#include "core/miner.hpp"
#include "core/topdown.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "tdb/stats.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace plt;

struct Strategy {
  const char* label;
  core::Algorithm algorithm;
  core::PlanMode plan;
};

constexpr Strategy kStrategies[] = {
    {"conditional", core::Algorithm::kPltConditional, core::PlanMode::kFixed},
    {"topdown", core::Algorithm::kPltTopDownCanonical,
     core::PlanMode::kFixed},
    {"eclat", core::Algorithm::kEclat, core::PlanMode::kFixed},
    {"adaptive", core::Algorithm::kPltConditional, core::PlanMode::kAdaptive},
};

struct CellRun {
  double seconds = 0.0;  // min over reps
  bool failed = false;   // guard trip (top-down overflow)
  std::string plan_root;
  core::ProjectionStats projection;
};

struct MatrixCell {
  std::string dataset;
  Count minsup = 0;
  std::size_t frequent = 0;
  CellRun runs[std::size(kStrategies)];
};

// Runs one (dataset, minsup, strategy) cell `reps` times, keeping the best
// time; verifies every run's output against `reference` (the fixed
// conditional result) — the planner's whole contract is that plans change
// time, never output.
bool run_cell(const tdb::Database& db, Count minsup, const Strategy& s,
              int reps, std::optional<core::FrequentItemsets>& reference,
              CellRun& out, std::size_t& frequent) {
  core::MineOptions options;
  options.plan = s.plan;
  for (int rep = 0; rep < reps; ++rep) {
    core::MineResult result;
    try {
      result = core::mine(db, minsup, s.algorithm, options);
    } catch (const core::TopDownOverflow&) {
      out.failed = true;
      return true;
    }
    const double seconds = result.build_seconds + result.mine_seconds;
    if (rep == 0 || seconds < out.seconds) out.seconds = seconds;
    out.plan_root = result.plan_root;
    out.projection = result.projection;
    if (!reference) {
      reference = result.itemsets;
      frequent = result.itemsets.size();
    } else if (!core::FrequentItemsets::equal(*reference, result.itemsets)) {
      std::cerr << "OUTPUT MISMATCH: " << s.label << " at minsup " << minsup
                << " disagrees with the fixed conditional baseline\n";
      return false;
    }
  }
  return true;
}

void write_json(const std::string& path, double scale, int reps,
                const std::vector<std::pair<std::string, tdb::Stats>>& stats,
                const std::vector<MatrixCell>& cells) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"E20\",\n"
      << "  \"title\": \"adaptive execution planner vs fixed strategies\",\n"
      << "  \"scale\": " << scale << ",\n  \"reps\": " << reps << ",\n"
      << "  \"datasets\": [\n";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const tdb::Stats& s = stats[i].second;
    out << "    {\"name\": \"" << stats[i].first
        << "\", \"transactions\": " << s.transactions
        << ", \"distinct_items\": " << s.distinct_items
        << ", \"avg_len\": " << s.avg_len << ", \"max_len\": " << s.max_len
        << ", \"density\": " << s.density
        << ", \"support_gini\": " << s.support_gini << "}"
        << (i + 1 < stats.size() ? "," : "") << '\n';
  }
  out << "  ],\n  \"rows\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const MatrixCell& c = cells[i];
    // Winner/worst over the fixed strategies only — the claim under test is
    // adaptive vs the best and worst choice it could have made.
    const CellRun* best = nullptr;
    const CellRun* worst = nullptr;
    const char* winner = "";
    for (std::size_t s = 0; s + 1 < std::size(kStrategies); ++s) {
      const CellRun& r = c.runs[s];
      if (r.failed) continue;
      if (best == nullptr || r.seconds < best->seconds) {
        best = &r;
        winner = kStrategies[s].label;
      }
      if (worst == nullptr || r.seconds > worst->seconds) worst = &r;
    }
    const CellRun& adaptive = c.runs[std::size(kStrategies) - 1];
    out << "    {\"dataset\": \"" << c.dataset
        << "\", \"minsup\": " << c.minsup
        << ", \"frequent_itemsets\": " << c.frequent;
    for (std::size_t s = 0; s < std::size(kStrategies); ++s) {
      out << ", \"" << kStrategies[s].label << "_seconds\": ";
      if (c.runs[s].failed)
        out << "null";
      else
        out << c.runs[s].seconds;
    }
    out << ", \"winner\": \"" << winner << "\""
        << ", \"adaptive_vs_best\": "
        << (best != nullptr && best->seconds > 0
                ? adaptive.seconds / best->seconds
                : 0.0)
        << ", \"adaptive_vs_worst\": "
        << (worst != nullptr && worst->seconds > 0
                ? adaptive.seconds / worst->seconds
                : 0.0)
        << ", \"plan_root\": \"" << adaptive.plan_root << "\""
        << ", \"decisions\": {\"pooled\": " << adaptive.projection.plan_pooled
        << ", \"single_path\": " << adaptive.projection.plan_single_path
        << ", \"eclat\": " << adaptive.projection.plan_eclat
        << ", \"narrow\": " << adaptive.projection.plan_narrow
        << ", \"wide\": " << adaptive.projection.plan_wide << "}}"
        << (i + 1 < cells.size() ? "," : "") << '\n';
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
  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 3)));

  harness::print_banner(std::cout, "E20",
                        "adaptive execution planner vs fixed strategies",
                        "section 6 (strategy choice by data shape) + S25");

  // One regime per sweep family: sparse (E2's generator), dense (E3's), and
  // the short-dense top-down crossover regime (E4's) where the support
  // range crosses every root-strategy boundary.
  const struct {
    const char* dataset;
    std::vector<double> fractions;
  } cases[] = {
      {"quest-sparse", {0.02, 0.005, 0.001}},
      {"chess-like", {0.95, 0.85, 0.70}},
      {"short-dense", {0.5, 0.05, 0.002, 0.0001}},
  };

  std::vector<std::pair<std::string, tdb::Stats>> stats;
  std::vector<MatrixCell> cells;
  for (const auto& c : cases) {
    const auto db = harness::scaled_dataset(c.dataset, scale);
    stats.emplace_back(c.dataset, tdb::compute_stats(db));
    for (const double fraction : c.fractions) {
      const Count minsup = harness::absolute_support(db, fraction);
      // Skip duplicate supports the scaled grid can collapse to.
      if (!cells.empty() && cells.back().dataset == c.dataset &&
          cells.back().minsup == minsup)
        continue;
      MatrixCell cell;
      cell.dataset = c.dataset;
      cell.minsup = minsup;
      std::optional<core::FrequentItemsets> reference;
      for (std::size_t s = 0; s < std::size(kStrategies); ++s)
        if (!run_cell(db, minsup, kStrategies[s], reps, reference,
                      cell.runs[s], cell.frequent))
          return 1;
      cells.push_back(std::move(cell));
    }
  }

  Table table({"dataset", "minsup", "conditional", "topdown", "eclat",
               "adaptive", "plan root", "vs best"});
  for (const MatrixCell& c : cells) {
    const CellRun& adaptive = c.runs[std::size(kStrategies) - 1];
    double best = 0.0;
    for (std::size_t s = 0; s + 1 < std::size(kStrategies); ++s)
      if (!c.runs[s].failed &&
          (best == 0.0 || c.runs[s].seconds < best))
        best = c.runs[s].seconds;
    std::vector<std::string> row = {c.dataset, std::to_string(c.minsup)};
    for (std::size_t s = 0; s < std::size(kStrategies); ++s)
      row.push_back(c.runs[s].failed
                        ? "GUARD"
                        : format_duration(c.runs[s].seconds));
    row.push_back(adaptive.plan_root);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx",
                  best > 0 ? adaptive.seconds / best : 0.0);
    row.push_back(buf);
    table.add_row(row);
  }
  std::cout << table.to_text();

  write_json(args.get("out", "BENCH_adaptive.json"), scale, reps, stats,
             cells);

  std::cout << "\nExpected shape: adaptive tracks the best fixed strategy\n"
               "within noise in every cell (it pays only a statistics pass)\n"
               "and beats the worst fixed choice by the full crossover gap\n"
               "where the regimes diverge (short-dense at the support\n"
               "extremes, sparse data vs top-down).\n";
  return 0;
}
