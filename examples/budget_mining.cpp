// Execution-controlled mining: run the same workload under a wall-clock
// deadline, a memory budget, and explicit cancellation, and show what a
// budget-exceeded run reports: its degradation hint, and next to it what
// the blob path would hold for the same database.
//
//   ./budget_mining [--transactions N] [--minsup-frac F]
//                   [--deadline-ms MS] [--budget-bytes B]
#include <chrono>
#include <iostream>
#include <thread>

#include "compress/codec.hpp"
#include "compress/ooc_miner.hpp"
#include "core/builder.hpp"
#include "core/miner.hpp"
#include "datagen/quest.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace plt;
  using namespace std::chrono;
  const Args args(argc, argv);

  datagen::QuestConfig cfg;
  cfg.transactions =
      static_cast<std::size_t>(args.get_int("transactions", 4000));
  cfg.items = 120;
  cfg.seed = 7;
  const auto db = datagen::generate_quest(cfg);
  const auto minsup = static_cast<Count>(
      static_cast<double>(db.size()) * args.get_double("minsup-frac", 0.01));

  // 1. A deadline: the mine stops cooperatively when the clock runs out and
  //    returns whatever it had already emitted (a valid prefix).
  {
    const auto control = core::MiningControl::with_deadline(
        milliseconds(args.get_int("deadline-ms", 5)));
    core::MineOptions options;
    options.control = &control;
    const auto result =
        core::mine(db, minsup, core::Algorithm::kPltConditional, options);
    std::cout << "deadline run:   status=" << core::to_string(result.status)
              << ", itemsets=" << result.itemsets.size()
              << ", control checks=" << control.checks() << "\n";
  }

  // 2. Cancellation from another thread: the handle is shared atomic state,
  //    so any thread may pull the plug mid-mine.
  {
    core::MiningControl control;
    std::thread canceller([&control] {
      std::this_thread::sleep_for(milliseconds(1));
      control.request_cancel();
    });
    core::MineOptions options;
    options.control = &control;
    const auto result =
        core::mine(db, minsup, core::Algorithm::kPltConditional, options);
    canceller.join();
    std::cout << "cancelled run:  status=" << core::to_string(result.status)
              << ", itemsets=" << result.itemsets.size() << "\n";
  }

  // 3. A memory budget: when the working set would exceed it, the mine
  //    stops with kBudgetExceeded and a hint (raise min_support or the
  //    budget). The blob path is no way around the budget: it builds the
  //    same physical tree from the blob, as its tree bytes show. The blob
  //    is the compact form to store and ship, not a smaller working set.
  {
    core::MiningControl control;
    control.set_memory_budget(
        static_cast<std::size_t>(args.get_int("budget-bytes", 4096)));
    core::MineOptions options;
    options.control = &control;
    const auto result =
        core::mine(db, minsup, core::Algorithm::kPltConditional, options);
    std::cout << "budgeted run:   status=" << core::to_string(result.status)
              << "\n";
    if (result.status == core::MineStatus::kBudgetExceeded) {
      std::cout << "  hint: " << result.degradation_hint << "\n";
      const auto built = core::build_from_database(db, minsup);
      const auto blob = compress::encode_plt(built.plt);
      std::vector<Item> item_of(built.view.alphabet());
      for (Rank r = 1; r <= built.view.alphabet(); ++r)
        item_of[r - 1] = built.view.item_of(r);
      core::FrequentItemsets mined;
      compress::OocStats stats;
      compress::mine_from_blob(blob, item_of, minsup,
                               core::collect_into(mined), &stats);
      std::cout << "  blob path, unbudgeted: " << mined.size()
                << " itemsets, tree " << stats.peak_overlay_bytes
                << " bytes (blob " << blob.size() << " bytes)\n";
    }
  }

  // 4. Unlimited control for comparison: completes, and the control's own
  //    check count shows how often the mine asked (each check costs almost
  //    nothing).
  {
    core::MiningControl control;
    control.set_memory_budget(std::size_t{1} << 40);
    core::MineOptions options;
    options.control = &control;
    const auto result =
        core::mine(db, minsup, core::Algorithm::kPltConditional, options);
    std::cout << "unlimited run:  status=" << core::to_string(result.status)
              << ", itemsets=" << result.itemsets.size()
              << ", control checks=" << control.checks() << "\n";
  }
  return 0;
}
