// E12 — sliding-window stream mining: sustained push throughput and
// periodic window mining on a click-stream feed, with batch-equivalence
// verified on the final window. Extends the incremental-maintenance story
// (E10) to the continuous setting of the paper's §1 motivation.
#include <iostream>

#include "core/miner.hpp"
#include "core/stream.hpp"
#include "datagen/clickstream.hpp"
#include "harness/backend.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "util/args.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace plt;
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args)) return 2;
  harness::TraceScope trace_scope(args);
  const double scale = args.get_double("scale", 1.0);

  harness::print_banner(std::cout, "E12", "sliding-window stream mining",
                        "section 1 (continuously growing databases)");

  datagen::ClickstreamConfig cfg;
  cfg.sessions = static_cast<std::size_t>(40000 * scale);
  cfg.pages = 300;
  cfg.seed = 21;
  const auto stream = datagen::generate_clickstream(cfg);

  Table table({"window", "pushes/s", "mine every", "avg mine", "frequent@end",
               "window mem", "matches batch"});
  for (const std::size_t window_size : {1000u, 5000u, 20000u}) {
    core::SlidingWindowMiner window(window_size, stream.max_item());
    const std::size_t mine_every = window_size / 2;
    const Count minsup = std::max<Count>(2, window_size / 100);

    Timer push_timer;
    double mine_seconds = 0.0;
    std::size_t mines = 0;
    std::size_t final_count = 0;
    for (std::size_t t = 0; t < stream.size(); ++t) {
      window.push(stream[t]);
      if ((t + 1) % mine_every == 0) {
        Timer mine_timer;
        const auto mined = window.mine(minsup);
        mine_seconds += mine_timer.seconds();
        ++mines;
        final_count = mined.size();
      }
    }
    const double push_seconds = push_timer.seconds() - mine_seconds;

    // Verify the final window against a batch build.
    auto windowed = window.mine(minsup);
    auto batch = core::mine(window.window_database(), minsup,
                            core::Algorithm::kPltConditional)
                     .itemsets;
    const bool matches =
        core::FrequentItemsets::equal(std::move(windowed), std::move(batch));

    table.add_row(
        {std::to_string(window_size),
         std::to_string(static_cast<std::uint64_t>(
             static_cast<double>(stream.size()) /
             std::max(push_seconds, 1e-9))),
         std::to_string(mine_every),
         format_duration(mines ? mine_seconds /
                                     static_cast<double>(mines)
                               : 0.0),
         std::to_string(final_count), format_bytes(window.memory_usage()),
         matches ? "yes" : "NO"});
  }
  std::cout << table.to_text();
  std::cout << "\nExpected shape: push throughput in the millions/second and\n"
               "independent of window size (one increment + one decrement);\n"
               "mining cost tracks window content; results always equal a\n"
               "batch build of the window.\n";
  return 0;
}
