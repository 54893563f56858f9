// E13 — Toivonen sample-and-verify vs direct mining: the classic "avoid
// repeated scans of a large database" technique (§1's stated cost concern)
// implemented over the PLT miners. Reports sampling rounds, candidate
// counts, negative-border sizes and end-to-end time against direct exact
// mining — results are exact by construction (and re-verified here).
#include <iostream>

#include "core/border.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace plt;
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args)) return 2;
  harness::TraceScope trace_scope(args);
  const double scale = args.get_double("scale", 1.0);

  harness::print_banner(std::cout, "E13", "sampling with negative-border "
                                          "verification (Toivonen)",
                        "section 1 (database scanned several times)");

  Table table({"dataset", "minsup", "sample", "rounds", "candidates",
               "border", "fallback", "toivonen", "direct", "exact"});

  const struct {
    const char* dataset;
    double minsup_frac;
  } cases[] = {
      {"quest-sparse", 0.01},
      {"quest-wide", 0.02},
      {"clickstream", 0.01},
  };

  for (const auto& c : cases) {
    const auto db = harness::scaled_dataset(c.dataset, scale);
    const Count minsup = harness::absolute_support(db, c.minsup_frac);
    for (const double fraction : {0.1, 0.25}) {
      core::ToivonenOptions options;
      options.sample_fraction = fraction;
      options.seed = 5;
      Timer toivonen_timer;
      const auto sampled = core::mine_toivonen(db, minsup, options);
      const double toivonen_seconds = toivonen_timer.seconds();

      Timer direct_timer;
      auto direct =
          core::mine(db, minsup, core::Algorithm::kPltConditional).itemsets;
      const double direct_seconds = direct_timer.seconds();

      const bool exact = core::FrequentItemsets::equal(
          sampled.itemsets, std::move(direct));
      char frac[16];
      std::snprintf(frac, sizeof frac, "%.0f%%", fraction * 100);
      table.add_row({c.dataset, std::to_string(minsup), frac,
                     std::to_string(sampled.attempts),
                     std::to_string(sampled.candidates),
                     std::to_string(sampled.border_size),
                     sampled.used_fallback ? "yes" : "no",
                     format_duration(toivonen_seconds),
                     format_duration(direct_seconds),
                     exact ? "yes" : "NO"});
    }
  }
  std::cout << table.to_text();
  std::cout << "\nExpected shape: one sampling round usually suffices; the\n"
               "negative border stays small relative to the candidate set;\n"
               "results are always exact. The verify pass touches the full\n"
               "database once, so wall-clock gains appear when mining is\n"
               "expensive relative to counting (low thresholds / big data).\n";
  return 0;
}
