// E17 — the allocation-free conditional projection engine: pooled iterative
// Algorithm 3 (recycled PLT arenas, flat conditional-db buffer, explicit
// stack) against the seed recursive path that allocates a fresh conditional
// PLT per recursion node. Sweeps the dense datasets at falling support —
// exactly the regime where the paper says conditional projections should be
// cheapest — and records times plus the engine's recycling counters to a
// BENCH_*.json so before/after is machine-readable. Exits non-zero if the
// two paths ever disagree on the mined itemsets.
#include <chrono>
#include <fstream>
#include <iostream>

#include "core/builder.hpp"
#include "core/exec_control.hpp"
#include "core/conditional.hpp"
#include "core/projection_pool.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "obs/trace.hpp"
#include "parallel/partition_miner.hpp"
#include "util/args.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace plt;

struct Row {
  std::string dataset;
  Count minsup = 0;
  std::size_t frequent = 0;
  double recursive_seconds = 0.0;
  double pooled_seconds = 0.0;
  double warm_seconds = 0.0;        ///< warm-pool rerun, no control
  double controlled_seconds = 0.0;  ///< warm-pool rerun + armed control
  double scalar_kernel_seconds = 0.0;  ///< warm rerun, scalar kernel backend
  double traced_seconds = 0.0;  ///< warm rerun with a live trace session
  std::uint64_t trace_spans = 0;  ///< spans recorded by that rerun
  std::uint64_t control_checks = 0;
  core::ProjectionStats stats;
};

struct Prepared {
  core::RankedView view;
  std::vector<Item> item_of;
};

Prepared prepare(const tdb::Database& db, Count minsup) {
  Prepared p;
  p.view = core::build_ranked_view(db, minsup);
  const auto max_rank = static_cast<Rank>(p.view.alphabet());
  p.item_of.resize(max_rank);
  for (Rank r = 1; r <= max_rank; ++r) p.item_of[r - 1] = p.view.item_of(r);
  return p;
}

// Both paths re-build the PLT (mining consumes it) so the timed section is
// mine-only and identical in inputs.
double time_recursive(const Prepared& p, Count minsup,
                      core::FrequentItemsets& out) {
  core::Plt plt =
      core::build_plt(p.view.db, static_cast<Rank>(p.view.alphabet()));
  std::vector<Item> suffix;
  Timer timer;
  core::mine_plt_conditional_recursive(plt, p.item_of, suffix, minsup,
                                       core::collect_into(out), {});
  return timer.seconds();
}

double time_pooled(const Prepared& p, Count minsup,
                   core::ProjectionEngine& engine,
                   core::FrequentItemsets& out) {
  core::Plt plt =
      core::build_plt(p.view.db, static_cast<Rank>(p.view.alphabet()));
  std::vector<Item> suffix;
  Timer timer;
  engine.mine(plt, p.item_of, suffix, minsup, core::collect_into(out), {});
  return timer.seconds();
}

// Same pooled mine with a live MiningControl attached (deadline + budget
// set far beyond reach), so every cooperative check actually runs — this
// measures the <2% overhead target for the execution-control layer.
double time_controlled(const Prepared& p, Count minsup,
                       core::ProjectionEngine& engine,
                       core::FrequentItemsets& out,
                       std::uint64_t& checks) {
  core::Plt plt =
      core::build_plt(p.view.db, static_cast<Rank>(p.view.alphabet()));
  core::MiningControl control =
      core::MiningControl::with_deadline(std::chrono::hours(24));
  control.set_memory_budget(std::size_t{1} << 40);
  std::vector<Item> suffix;
  Timer timer;
  engine.set_control(&control, plt.memory_usage());
  engine.mine(plt, p.item_of, suffix, minsup, core::collect_into(out), {});
  const double seconds = timer.seconds();
  engine.set_control(nullptr, 0);
  checks = control.checks();
  return seconds;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                double scale, const std::string& trace_summary) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"E17\",\n"
      << "  \"title\": \"allocation-free conditional projection engine\",\n"
      << "  \"scale\": " << scale << ",\n";
  if (!trace_summary.empty()) out << "  \"trace\": " << trace_summary << ",\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double speedup =
        r.pooled_seconds > 0 ? r.recursive_seconds / r.pooled_seconds : 0.0;
    // The recursive path constructs one fresh conditional PLT per
    // projection, so its allocation count IS projections_built.
    const double alloc_reduction =
        r.stats.fresh_allocations > 0
            ? static_cast<double>(r.stats.projections_built) /
                  static_cast<double>(r.stats.fresh_allocations)
            : 0.0;
    out << "    {\"dataset\": \"" << r.dataset << "\""
        << ", \"minsup\": " << r.minsup
        << ", \"frequent_itemsets\": " << r.frequent
        << ", \"recursive_seconds\": " << r.recursive_seconds
        << ", \"pooled_seconds\": " << r.pooled_seconds
        << ", \"warm_seconds\": " << r.warm_seconds
        << ", \"controlled_seconds\": " << r.controlled_seconds
        << ", \"scalar_kernel_seconds\": " << r.scalar_kernel_seconds
        << ", \"kernel_speedup\": "
        << (r.warm_seconds > 0 ? r.scalar_kernel_seconds / r.warm_seconds
                               : 0.0)
        << ", \"control_overhead\": "
        << (r.warm_seconds > 0
                ? r.controlled_seconds / r.warm_seconds - 1.0
                : 0.0)
        << ", \"traced_seconds\": " << r.traced_seconds
        << ", \"trace_overhead\": "
        << (r.warm_seconds > 0 ? r.traced_seconds / r.warm_seconds - 1.0
                               : 0.0)
        << ", \"trace_spans\": " << r.trace_spans
        << ", \"control_checks\": " << r.control_checks
        << ", \"speedup\": " << speedup
        << ", \"projections_built\": " << r.stats.projections_built
        << ", \"entries_projected\": " << r.stats.entries_projected
        << ", \"baseline_fresh_allocations\": " << r.stats.projections_built
        << ", \"fresh_allocations\": " << r.stats.fresh_allocations
        << ", \"recycled_allocations\": " << r.stats.recycled_allocations
        << ", \"bytes_fresh\": " << r.stats.bytes_fresh
        << ", \"bytes_recycled\": " << r.stats.bytes_recycled
        << ", \"alloc_reduction\": " << alloc_reduction << "}"
        << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args)) return 2;
  harness::TraceScope trace_scope(args);
  const double scale = args.get_double("scale", 1.0);
  const std::string out_path =
      args.get("out", "BENCH_projection_pool.json");

  harness::print_banner(std::cout, "E17",
                        "pooled projection engine vs recursive Algorithm 3",
                        "section 6 (cheap conditional projections) — "
                        "allocation recycling");

  const struct {
    const char* dataset;
    std::vector<double> fractions;
  } cases[] = {
      {"chess-like", {0.90, 0.80, 0.70, 0.60}},
      {"mushroom-like", {0.30, 0.20, 0.10}},
  };

  std::vector<Row> rows;
  Table table({"dataset", "minsup", "frequent", "recursive", "pooled",
               "speedup", "kern spd", "ctl ovh%", "trc ovh%", "projections",
               "fresh", "recycled", "recycled B"});
  bool all_agree = true;
  for (const auto& c : cases) {
    const auto db = harness::scaled_dataset(c.dataset, scale);
    for (const Count minsup : harness::support_grid(db, c.fractions)) {
      const Prepared p = prepare(db, minsup);
      if (p.view.alphabet() == 0) continue;

      core::FrequentItemsets recursive_out;
      const double recursive_seconds =
          time_recursive(p, minsup, recursive_out);

      // Fresh engine per cell: the counters then describe exactly this
      // workload (first-touch pool misses included).
      core::ProjectionEngine engine;
      core::FrequentItemsets pooled_out;
      const double pooled_seconds =
          time_pooled(p, minsup, engine, pooled_out);

      // Snapshot the recycling counters now: they must describe exactly
      // one cold mine, not the warm reruns below.
      const core::ProjectionStats cold_stats = engine.stats();

      // Overhead is measured warm-vs-warm (both reruns reuse the pooled
      // frames) and best-of-3 (scheduling noise on millisecond cells dwarfs
      // the check cost), so the delta is the cost of the cooperative checks
      // alone.
      core::FrequentItemsets warm_out;
      core::FrequentItemsets controlled_out;
      double warm_seconds = 0.0, controlled_seconds = 0.0;
      std::uint64_t control_checks = 0;
      for (int rep = 0; rep < 3; ++rep) {
        warm_out = {};
        const double w = time_pooled(p, minsup, engine, warm_out);
        if (rep == 0 || w < warm_seconds) warm_seconds = w;
        controlled_out = {};
        const double c =
            time_controlled(p, minsup, engine, controlled_out,
                            control_checks);
        if (rep == 0 || c < controlled_seconds) controlled_seconds = c;
      }

      // Same warm engine pinned to the scalar kernel backend: warm vs
      // warm isolates the vectorized-kernel speedup from the pooling win.
      const kernels::Backend selected = kernels::active().backend;
      double scalar_kernel_seconds = 0.0;
      core::FrequentItemsets scalar_out;
      kernels::set_backend(kernels::Backend::kScalar);
      for (int rep = 0; rep < 3; ++rep) {
        scalar_out = {};
        const double s = time_pooled(p, minsup, engine, scalar_out);
        if (rep == 0 || s < scalar_kernel_seconds) scalar_kernel_seconds = s;
      }
      kernels::set_backend(selected);

      // Warm rerun with a live trace session: every span/counter site
      // records for real, so the delta over the untraced warm rerun is the
      // enabled-mode tracing cost (E19). The disabled-mode cost is the warm
      // column itself, compared against a build without the obs layer.
      double traced_seconds = 0.0;
      std::uint64_t trace_spans = 0;
      core::FrequentItemsets traced_out;
      for (int rep = 0; rep < 3; ++rep) {
        traced_out = {};
        obs::TraceSession session;
        const double t = time_pooled(p, minsup, engine, traced_out);
        const auto tree = session.finish();
        if (rep == 0 || t < traced_seconds) {
          traced_seconds = t;
          trace_spans = tree->span_total();
        }
      }
      if (!core::FrequentItemsets::equal(recursive_out, traced_out)) {
        std::cerr << "DISAGREEMENT (traced) at " << c.dataset
                  << " minsup=" << minsup << "\n";
        all_agree = false;
      }

      if (!core::FrequentItemsets::equal(recursive_out, scalar_out)) {
        std::cerr << "DISAGREEMENT (scalar backend) at " << c.dataset
                  << " minsup=" << minsup << "\n";
        all_agree = false;
      }

      if (!core::FrequentItemsets::equal(recursive_out, controlled_out)) {
        std::cerr << "DISAGREEMENT (controlled) at " << c.dataset
                  << " minsup=" << minsup << "\n";
        all_agree = false;
      }
      if (!core::FrequentItemsets::equal(recursive_out, pooled_out)) {
        std::cerr << "DISAGREEMENT at " << c.dataset << " minsup=" << minsup
                  << "\n";
        all_agree = false;
      }

      Row row;
      row.dataset = c.dataset;
      row.minsup = minsup;
      row.frequent = pooled_out.size();
      row.recursive_seconds = recursive_seconds;
      row.pooled_seconds = pooled_seconds;
      row.warm_seconds = warm_seconds;
      row.controlled_seconds = controlled_seconds;
      row.scalar_kernel_seconds = scalar_kernel_seconds;
      row.traced_seconds = traced_seconds;
      row.trace_spans = trace_spans;
      row.control_checks = control_checks;
      row.stats = cold_stats;
      rows.push_back(row);

      table.add_row(
          {row.dataset, std::to_string(minsup), std::to_string(row.frequent),
           format_duration(recursive_seconds), format_duration(pooled_seconds),
           pooled_seconds > 0
               ? std::to_string(recursive_seconds / pooled_seconds)
               : "-",
           warm_seconds > 0
               ? std::to_string(scalar_kernel_seconds / warm_seconds)
               : "-",
           warm_seconds > 0
               ? std::to_string(
                     (controlled_seconds / warm_seconds - 1.0) * 100.0)
               : "-",
           warm_seconds > 0
               ? std::to_string(
                     (traced_seconds / warm_seconds - 1.0) * 100.0)
               : "-",
           std::to_string(row.stats.projections_built),
           std::to_string(row.stats.fresh_allocations),
           std::to_string(row.stats.recycled_allocations),
           format_bytes(row.stats.bytes_recycled)});
    }
  }
  std::cout << table.to_text();

  // Resilience summary: the control-check overhead across the sweep (the
  // execution-control layer targets <2% on the pooled path).
  double warm_total = 0.0, controlled_total = 0.0;
  std::uint64_t checks_total = 0;
  for (const Row& r : rows) {
    warm_total += r.warm_seconds;
    controlled_total += r.controlled_seconds;
    checks_total += r.control_checks;
  }
  if (warm_total > 0)
    std::cout << "\nresilience: " << checks_total << " control checks, "
              << "aggregate overhead "
              << (controlled_total / warm_total - 1.0) * 100.0
              << "% (target < 2%)\n";

  // With --trace the run-wide session also covered the sweep: finish it
  // now so its summary can ride along in the report.
  std::string trace_summary;
  if (trace_scope.active()) {
    trace_scope.write();
    trace_summary = harness::trace_summary_json(*trace_scope.root());
  }
  write_json(out_path, rows, scale, trace_summary);
  std::cout << "\nWrote " << out_path << ".\n"
            << "Expected shape: the recursive baseline pays one fresh PLT\n"
            << "(arenas + hash indexes + buckets) per projection; the pooled\n"
            << "engine pays one per depth, so fresh allocations collapse by\n"
            << "orders of magnitude and mine time improves as support falls\n"
            << "(more projections, deeper chains, warmer pool).\n";
  return all_agree ? 0 : 1;
}
