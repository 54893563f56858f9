// plt-mine — command-line frequent-itemset miner over the libplt stack.
//
// Input:      --input FILE (FIMI format)  or  --dataset NAME [--scale S]
// Threshold:  --minsup N (absolute)  or  --minsup-frac F (relative)
// Algorithm:  --algorithm plt-conditional|plt-topdown|plt-topdown-sweep|
//                         apriori|fp-growth|h-mine|eclat|declat   (or: all)
// Tasks:      --closed --maximal         condensed representations
//             --top-k K                  k most frequent itemsets
//             --contains "1 2 3"         itemsets containing these items
//             --rules --minconf C        association rules
//             --serialize OUT.plt        write the varint-encoded PLT
//             --emit-blob OUT.plt        alias of --serialize (plt-serve
//                                        quick-start wording)
//             --stats                    dataset statistics only
// Output:     --output text|csv (default text), --limit N (rows shown)
// Tracing:    --trace FILE               span-tree JSON for the whole run
//             --trace-folded FILE        flamegraph-folded stacks
#include <fstream>
#include <iostream>
#include <sstream>

#include "baselines/charm.hpp"
#include "compress/codec.hpp"
#include "core/builder.hpp"
#include "core/closed.hpp"
#include "core/miner.hpp"
#include "core/queries.hpp"
#include "core/validate.hpp"
#include "datagen/registry.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/experiment.hpp"
#include "harness/tracing.hpp"
#include "rules/generator.hpp"
#include "tdb/io.hpp"
#include "tdb/stats.hpp"
#include "util/args.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace plt;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " (--input FILE | --dataset NAME)\n"
      << "  [--minsup N | --minsup-frac F] [--algorithm NAME|all]\n"
      << "  [--closed] [--closed-native] [--maximal] [--top-k K]\n"
      << "  [--contains \"ITEMS\"]\n"
      << "  [--rules [--minconf C]] [--serialize FILE | --emit-blob FILE]\n"
      << "  [--stats]\n"
      << "  [--output text|csv] [--limit N] [--scale S]\n"
      << "  [--backend scalar|sse42|avx2|simd|auto] [--plan fixed|adaptive]\n"
      << "  [--validate] [--trace FILE] [--trace-folded FILE]\n"
      << "datasets: ";
  for (const auto& spec : datagen::dataset_registry())
    std::cerr << spec.name << ' ';
  std::cerr << '\n';
  return 2;
}

std::optional<core::Algorithm> parse_algorithm(const std::string& name) {
  for (const core::Algorithm algorithm : core::all_algorithms())
    if (name == core::algorithm_name(algorithm)) return algorithm;
  if (name == "brute-force") return core::Algorithm::kBruteForce;
  return std::nullopt;
}

void print_itemsets(const core::FrequentItemsets& itemsets,
                    const std::string& format, std::size_t limit) {
  core::FrequentItemsets sorted = itemsets;
  sorted.canonicalize();
  Table table({"itemset", "support"});
  const std::size_t n = limit ? std::min(limit, sorted.size())
                              : sorted.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::ostringstream items;
    for (std::size_t j = 0; j < sorted.itemset(i).size(); ++j) {
      if (j) items << ' ';
      items << sorted.itemset(i)[j];
    }
    table.add_row({items.str(), std::to_string(sorted.support(i))});
  }
  std::cout << (format == "csv" ? table.to_csv() : table.to_text());
  if (n < sorted.size())
    std::cout << "... (" << sorted.size() - n << " more; use --limit 0)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args, /*announce=*/false)) return 2;
  // An unknown --plan refuses to run with the usage text, mirroring the
  // --backend contract: never silently mine under the wrong plan.
  const std::optional<core::PlanMode> plan = harness::parse_plan_flag(args);
  if (!plan) return usage(argv[0]);
  core::MineOptions mine_options;
  mine_options.plan = *plan;
  // One session around everything the invocation does (mining, queries,
  // serialization); written on every exit path by the destructor.
  harness::TraceScope trace(args);
  // --validate wires the PLT_VALIDATE machinery for this run: every PLT the
  // mine builds or decodes gets the full structural check (DESIGN.md S24),
  // and a violation aborts with a diagnostic instead of mining garbage.
  if (args.get_bool("validate", false)) {
    core::set_validation_enabled(true);
    std::cerr << "structural validation: enabled\n";
  }
  const std::string format = args.get("output", "text");
  const auto limit = static_cast<std::size_t>(args.get_int("limit", 50));

  // -- load --
  tdb::Database db;
  try {
    if (args.has("input")) {
      db = tdb::read_fimi_file(args.get("input", ""));
    } else if (args.has("dataset")) {
      db = harness::scaled_dataset(args.get("dataset", ""),
                                   args.get_double("scale", 1.0));
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  if (db.empty()) {
    std::cerr << "error: empty database\n";
    return 1;
  }

  if (args.get_bool("stats", false)) {
    std::cout << tdb::to_string(tdb::compute_stats(db));
    return 0;
  }

  const Count minsup =
      args.has("minsup-frac")
          ? harness::absolute_support(db, args.get_double("minsup-frac", 0.01))
          : static_cast<Count>(args.get_int("minsup", 2));
  if (minsup < 1) {
    std::cerr << "error: minsup must be >= 1\n";
    return 1;
  }

  // -- query-style tasks --
  if (args.has("top-k")) {
    core::TopKOptions options;
    const auto top = core::mine_top_k(
        db, static_cast<std::size_t>(args.get_int("top-k", 10)), options);
    print_itemsets(top, format, limit);
    return 0;
  }
  if (args.get_bool("closed-native", false)) {
    // CHARM: closed itemsets mined directly, no full enumeration.
    core::FrequentItemsets closed;
    baselines::mine_charm(db, minsup, core::collect_into(closed));
    std::cerr << closed.size() << " closed itemsets (native CHARM)\n";
    print_itemsets(closed, format, limit);
    return 0;
  }
  if (args.has("contains")) {
    Itemset constraint;
    std::istringstream in(args.get("contains", ""));
    for (Item item; in >> item;) constraint.push_back(item);
    if (constraint.empty()) return usage(argv[0]);
    const auto result = core::mine_containing(db, minsup, constraint);
    if (!result.constraint_support) {
      std::cout << "constraint itemset is not frequent at minsup " << minsup
                << '\n';
      return 0;
    }
    print_itemsets(result.itemsets, format, limit);
    return 0;
  }

  // -- algorithm selection --
  const std::string algo_name = args.get("algorithm", "plt-conditional");
  if (algo_name == "all") {
    Table table({"algorithm", "build", "mine", "total", "structure",
                 "frequent"});
    std::optional<core::FrequentItemsets> reference;
    for (const core::Algorithm algorithm : core::all_algorithms()) {
      try {
        auto result = core::mine(db, minsup, algorithm, mine_options);
        if (!reference) reference = result.itemsets;
        const bool agrees = core::FrequentItemsets::equal(
            *reference, result.itemsets);
        table.add_row(
            {core::algorithm_name(algorithm),
             format_duration(result.build_seconds),
             format_duration(result.mine_seconds),
             format_duration(result.build_seconds + result.mine_seconds),
             format_bytes(result.structure_bytes),
             std::to_string(result.itemsets.size()) +
                 (agrees ? "" : " (MISMATCH!)")});
      } catch (const std::exception& error) {
        table.add_row({core::algorithm_name(algorithm), "-", "-", "-", "-",
                       std::string("error: ") + error.what()});
      }
    }
    std::cout << (format == "csv" ? table.to_csv() : table.to_text());
    return 0;
  }

  const auto algorithm = parse_algorithm(algo_name);
  if (!algorithm) {
    std::cerr << "error: unknown algorithm " << algo_name << '\n';
    return usage(argv[0]);
  }

  core::MineResult result;
  try {
    result = core::mine(db, minsup, *algorithm, mine_options);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  std::cerr << result.itemsets.size() << " frequent itemsets in "
            << format_duration(result.build_seconds + result.mine_seconds)
            << '\n';

  if (args.get_bool("closed", false)) {
    print_itemsets(core::closed_itemsets(result.itemsets), format, limit);
  } else if (args.get_bool("maximal", false)) {
    print_itemsets(core::maximal_itemsets(result.itemsets), format, limit);
  } else if (args.get_bool("rules", false)) {
    rules::RuleOptions options;
    options.min_confidence = args.get_double("minconf", 0.6);
    const auto found =
        rules::generate_rules(result.itemsets, db.size(), options);
    const std::size_t n = limit ? std::min(limit, found.size())
                                : found.size();
    for (std::size_t i = 0; i < n; ++i)
      std::cout << rules::to_string(found[i]) << '\n';
    if (n < found.size())
      std::cout << "... (" << found.size() - n << " more)\n";
  } else {
    print_itemsets(result.itemsets, format, limit);
  }

  if (args.has("serialize") || args.has("emit-blob")) {
    const std::string out_path = args.has("serialize")
                                     ? args.get("serialize", "")
                                     : args.get("emit-blob", "");
    const auto built = core::build_from_database(db, minsup);
    const auto blob = compress::encode_plt(built.plt);
    // Atomic write (tmp + fsync + rename): a crash mid-serialize never
    // leaves a torn blob where a previous good one stood.
    try {
      compress::write_blob_file(blob, out_path);
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << '\n';
      return 1;
    }
    std::cerr << "PLT serialized: " << blob.size() << " bytes -> " << out_path
              << '\n';
  }
  return 0;
}
