// E15 — the candidate-generation family tour: the paper's §3 survey lists
// Apriori, AprioriTid, DHP, DIC and Partition as the pre-pattern-growth
// lineage. All five are implemented here; this bench reproduces the classic
// inside-the-family comparison against the PLT conditional miner on one
// sparse and one dense workload (every cell cross-checked for agreement).
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

  harness::print_banner(std::cout, "E15", "candidate-generation family",
                        "section 3 (AIS/Apriori/DHP/Partition/DIC survey)");

  const struct {
    const char* dataset;
    std::vector<double> fractions;
  } cases[] = {
      {"quest-sparse", {0.02, 0.01, 0.005}},
      {"mushroom-like", {0.35, 0.25, 0.18}},
  };

  for (const auto& c : cases) {
    const auto db = harness::scaled_dataset(c.dataset, scale * 0.5);
    harness::SweepConfig config;
    config.dataset_name = c.dataset;
    config.db = &db;
    config.supports = harness::support_grid(db, c.fractions);
    config.algorithms = {
        core::Algorithm::kAis,       core::Algorithm::kApriori,
        core::Algorithm::kAprioriTid, core::Algorithm::kDhp,
        core::Algorithm::kDic,       core::Algorithm::kPartition,
        core::Algorithm::kPltConditional,
    };
    const auto cells = harness::run_sweep(config);
    harness::print_sweep(std::cout, c.dataset, cells);
    harness::print_winners(std::cout, cells);
    std::cout << '\n';
  }
  std::cout << "Expected shape: inside the family, DHP's hash filter trims\n"
               "pass 2, AprioriTid wins once the encoded lists shrink below\n"
               "the raw data, DIC saves scans at the cost of bookkeeping,\n"
               "and Partition trades a second full pass for two-pass IO;\n"
               "the pattern-growth PLT conditional outruns the whole family\n"
               "as thresholds drop — the gap the paper's §3 narrative is\n"
               "built on.\n";
  return 0;
}
