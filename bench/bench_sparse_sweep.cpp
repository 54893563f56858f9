// E2 — sparse support-threshold sweep (the canonical FIMI-style comparison,
// matching the evaluation style of the papers cited in §3): PLT conditional
// vs Apriori vs FP-growth vs Eclat/dEclat on Quest T10/I4-shaped data.
// Results are cross-checked for exact agreement in every cell.
#include <iostream>

#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace plt;
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args)) return 2;
  harness::TraceScope trace_scope(args);
  const double scale = args.get_double("scale", 1.0);

  harness::print_banner(std::cout, "E2", "sparse dataset support sweep",
                        "sections 3/5.1 (pattern growth vs candidate "
                        "generation on sparse data)");

  for (const char* dataset : {"quest-sparse", "zipf-sparse"}) {
    const auto db = harness::scaled_dataset(dataset, scale);
    harness::SweepConfig config;
    config.dataset_name = dataset;
    config.db = &db;
    config.supports =
        harness::support_grid(db, {0.02, 0.01, 0.005, 0.002, 0.001});
    config.algorithms = {
        core::Algorithm::kPltConditional, core::Algorithm::kApriori,
        core::Algorithm::kFpGrowth,       core::Algorithm::kHMine,
        core::Algorithm::kEclat,          core::Algorithm::kDEclat,
    };
    const auto cells = harness::run_sweep(config);
    harness::print_sweep(std::cout, dataset, cells);
    harness::print_winners(std::cout, cells);
    std::cout << '\n';
  }
  std::cout << "Expected shape: Apriori degrades fastest as the threshold\n"
               "drops (candidate explosion, repeated scans); the pattern-\n"
               "growth miners (PLT conditional, FP-growth) and the vertical\n"
               "miners stay within a small factor of each other.\n";
  return 0;
}
