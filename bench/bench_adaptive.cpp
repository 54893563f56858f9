// E20 — the projection engine's subtree cost model vs the strategies it
// chooses between. Every mine runs the cost model (core/planner.hpp): per
// conditional subtree it picks pooled projection, single-path expansion or
// tidset intersection, and per kernel call the scalar or SIMD table, from
// the subtree's shape alone. This bench races, per cell of the matrix
// {sparse sweep, dense sweep, short-dense crossover regime}, the default
// engine against a pooled-only engine (the model switched off through
// PlanConfig) and the Eclat baseline (Algorithm::kEclat, the vertical root
// a caller can ask for), and cross-checks their output: all three
// canonically, and the two engines in raw emission order. Emits
// BENCH_adaptive.json (--out FILE) with the host, per-cell times, the
// model-vs-pooled ratio and the model's decision counters. Exits non-zero
// on any output mismatch.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <vector>

#include "core/builder.hpp"
#include "core/miner.hpp"
#include "core/projection_pool.hpp"
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

enum class Arm { kCostModel, kPooledOnly, kEclat };

struct Strategy {
  const char* label;
  Arm arm;
};

constexpr Strategy kStrategies[] = {
    {"cost_model", Arm::kCostModel},
    {"pooled_only", Arm::kPooledOnly},
    {"eclat", Arm::kEclat},
};

struct CellRun {
  double seconds = 0.0;  // min over reps
  core::ProjectionStats projection;
};

struct MatrixCell {
  std::string dataset;
  Count minsup = 0;
  std::size_t frequent = 0;
  CellRun runs[std::size(kStrategies)];
};

// One plt-conditional mine through an engine built with `config`, timed
// like core::mine (ranked view + tree build, then the walk).
core::MineResult mine_engine(const tdb::Database& db, Count minsup,
                             const core::PlanConfig& config) {
  core::MineResult result;
  Timer timer;
  const core::RankedView view = core::build_ranked_view(db, minsup);
  const auto max_rank = static_cast<Rank>(view.alphabet());
  if (max_rank == 0) return result;
  const core::TreeView tree = core::build_tree(view.db, max_rank);
  std::vector<Item> item_of(max_rank);
  for (Rank r = 1; r <= max_rank; ++r) item_of[r - 1] = view.item_of(r);
  core::ProjectionEngine engine(config);
  engine.mine(tree, item_of, minsup, result.itemsets, {});
  result.mine_seconds = timer.seconds();
  result.projection = engine.stats();
  return result;
}

core::MineResult run_once(const tdb::Database& db, Count minsup, Arm arm) {
  switch (arm) {
    case Arm::kCostModel:
      return mine_engine(db, minsup, {});
    case Arm::kPooledOnly: {
      core::PlanConfig pooled;
      pooled.allow_subtree_single_path = false;
      pooled.allow_subtree_eclat = false;
      return mine_engine(db, minsup, pooled);
    }
    case Arm::kEclat:
      break;
  }
  return core::mine(db, minsup, core::Algorithm::kEclat);
}

bool same_order(const core::FrequentItemsets& a,
                const core::FrequentItemsets& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto x = a.itemset(i);
    const auto y = b.itemset(i);
    if (a.support(i) != b.support(i) ||
        !std::equal(x.begin(), x.end(), y.begin(), y.end()))
      return false;
  }
  return true;
}

// Runs one (dataset, minsup, strategy) mine, keeps the best time in
// `out`, and verifies the output against `reference` (the cost model's
// first output): canonically for Eclat, in raw emission order for the
// engines.
bool run_cell(const tdb::Database& db, Count minsup, const Strategy& s,
              bool first, std::optional<core::FrequentItemsets>& reference,
              CellRun& out, std::size_t& frequent) {
  const core::MineResult result = run_once(db, minsup, s.arm);
  const double seconds = result.build_seconds + result.mine_seconds;
  if (first || seconds < out.seconds) out.seconds = seconds;
  out.projection = result.projection;
  if (!reference) {
    reference = result.itemsets;
    frequent = result.itemsets.size();
    return true;
  }
  const bool agrees =
      s.arm == Arm::kEclat
          ? core::FrequentItemsets::equal(*reference, result.itemsets)
          : same_order(*reference, result.itemsets);
  if (!agrees)
    std::cerr << "OUTPUT MISMATCH: " << s.label << " at minsup " << minsup
              << " disagrees with the cost model's output\n";
  return agrees;
}

void write_json(const std::string& path, double scale, int reps,
                const std::vector<std::pair<std::string, tdb::Stats>>& stats,
                const std::vector<MatrixCell>& cells) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"E20\",\n"
      << "  \"title\": \"subtree cost model vs pooled-only engine and "
         "eclat\",\n"
      << "  \"host\": " << harness::host_json() << ",\n"
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
    std::size_t winner = 0;
    for (std::size_t s = 1; s < std::size(kStrategies); ++s)
      if (c.runs[s].seconds < c.runs[winner].seconds) winner = s;
    const CellRun& model = c.runs[0];
    const CellRun& pooled = c.runs[1];
    out << "    {\"dataset\": \"" << c.dataset
        << "\", \"minsup\": " << c.minsup
        << ", \"frequent_itemsets\": " << c.frequent;
    for (std::size_t s = 0; s < std::size(kStrategies); ++s)
      out << ", \"" << kStrategies[s].label
          << "_seconds\": " << c.runs[s].seconds;
    out << ", \"winner\": \"" << kStrategies[winner].label << "\""
        << ", \"model_vs_pooled\": "
        << (pooled.seconds > 0 ? model.seconds / pooled.seconds : 0.0)
        << ", \"decisions\": {\"pooled\": " << model.projection.plan_pooled
        << ", \"single_path\": " << model.projection.plan_single_path
        << ", \"eclat\": " << model.projection.plan_eclat
        << "}, \"projections\": {\"cost_model\": "
        << model.projection.projections_built
        << ", \"pooled_only\": " << pooled.projection.projections_built
        << "}}" << (i + 1 < cells.size() ? "," : "") << '\n';
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
                        "subtree cost model vs pooled-only engine and eclat",
                        "section 6 (strategy choice by data shape) + S25");

  // One regime per sweep family: sparse (E2's generator), dense (E3's), and
  // the short-dense crossover regime (E4's), whose support range spans
  // every subtree shape the model distinguishes.
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
      // Reps interleave the arms, so host drift during a cell lands on
      // all three alike; each arm keeps its best time.
      std::optional<core::FrequentItemsets> reference;
      for (int rep = 0; rep < reps; ++rep)
        for (std::size_t s = 0; s < std::size(kStrategies); ++s)
          if (!run_cell(db, minsup, kStrategies[s], rep == 0, reference,
                        cell.runs[s], cell.frequent))
            return 1;
      cells.push_back(std::move(cell));
    }
  }

  Table table({"dataset", "minsup", "cost model", "pooled only", "eclat",
               "model/pooled", "projections model/pooled"});
  for (const MatrixCell& c : cells) {
    std::vector<std::string> row = {c.dataset, std::to_string(c.minsup)};
    for (std::size_t s = 0; s < std::size(kStrategies); ++s)
      row.push_back(format_duration(c.runs[s].seconds));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx",
                  c.runs[1].seconds > 0
                      ? c.runs[0].seconds / c.runs[1].seconds
                      : 0.0);
    row.push_back(buf);
    row.push_back(std::to_string(c.runs[0].projection.projections_built) +
                  "/" +
                  std::to_string(c.runs[1].projection.projections_built));
    table.add_row(row);
  }
  std::cout << table.to_text();

  write_json(args.get("out", "BENCH_adaptive.json"), scale, reps, stats,
             cells);

  std::cout << "\nExpected shape: the cost model builds fewer projections\n"
               "than the pooled-only engine in every cell that projects,\n"
               "and is clearly faster where that count falls by a large\n"
               "factor (short-dense at low support); elsewhere the two tie\n"
               "within run-to-run noise. eclat wins only sub-millisecond\n"
               "cells, which a caller can route to Algorithm::kEclat.\n";
  return 0;
}
