// P1-P5: regenerates every structure the paper draws, and verifies each
// against the hard-coded expected values (exits non-zero on mismatch, so
// this binary doubles as an end-to-end acceptance check).
#include <cstdlib>
#include <iostream>
#include <map>

#include "core/builder.hpp"
#include "core/conditional.hpp"
#include "core/miner.hpp"
#include "core/topdown.hpp"
#include "harness/backend.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "util/args.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << '\n';
  if (!ok) ++g_failures;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace plt;
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args)) return 2;
  harness::TraceScope trace_scope(args);
  constexpr Item A = 1, B = 2, C = 3, D = 4, E = 5, F = 6;
  const auto db = tdb::Database::from_transactions({
      {A, B, C}, {A, B, C}, {A, B, C, D}, {A, B, D, E}, {B, C, D},
      {C, D, F},
  });

  harness::print_banner(std::cout, "P1", "Table 1 + rank assignment",
                        "Table 1, section 4.2");
  const auto view = core::build_ranked_view(db, 2);
  check(view.alphabet() == 4, "four frequent items at minsup 2");
  check(view.support_of(1) == 4 && view.support_of(2) == 5 &&
            view.support_of(3) == 5 && view.support_of(4) == 4,
        "supports (A,4) (B,5) (C,5) (D,4)");
  check(!view.remap.map(E) && !view.remap.map(F), "E and F filtered");

  harness::print_banner(std::cout, "P2", "PLT of items {A,B,C,D}",
                        "Figure 2");
  // In the positional tree, each node's value is Rank(child)-Rank(parent);
  // spot-check the figure: root children carry 1..4, A's children 1,2,3.
  check(core::to_positions(std::vector<Rank>{1, 3}) == core::PosVec({1, 2}),
        "pos(C under A) == 2 (Definition 4.1.2 example)");
  check(core::to_positions(std::vector<Rank>{2, 3, 4}) ==
            core::PosVec({2, 1, 1}),
        "path B->C->D encodes as [2,1,1]");

  harness::print_banner(std::cout, "P3", "matrices / tree structure",
                        "Figure 3");
  const auto built = core::build_from_database(db, 2);
  std::cout << built.plt.to_string();
  check(built.plt.num_vectors() == 5 && built.plt.total_freq() == 6,
        "five distinct vectors covering six transactions");
  check(built.plt.freq_of(core::PosVec{1, 1, 1}) == 2,
        "[1,1,1] (ABC) has frequency 2");
  check(built.plt.freq_of(core::PosVec{3, 1}) == 1, "[3,1] (CD) present");

  harness::print_banner(std::cout, "P4", "database after top-down",
                        "Figure 4 / Algorithm 2");
  const auto table =
      core::topdown_expand(view, core::TopDownVariant::kSweep);
  std::cout << table.to_string();
  const std::map<core::PosVec, Count> expected = {
      {{1}, 4},       {{2}, 5},       {{3}, 5},          {{4}, 4},
      {{1, 1}, 4},    {{1, 2}, 3},    {{1, 3}, 2},       {{2, 1}, 4},
      {{2, 2}, 3},    {{3, 1}, 3},    {{1, 1, 1}, 3},    {{1, 1, 2}, 2},
      {{1, 2, 1}, 1}, {{2, 1, 1}, 2}, {{1, 1, 1, 1}, 1},
  };
  bool exact = true;
  std::size_t seen = 0;
  table.for_each([&](core::Plt::Ref, std::span<const Pos> v,
                     const core::Partition::Entry& entry) {
    const auto it = expected.find(core::PosVec(v.begin(), v.end()));
    exact = exact && it != expected.end() && it->second == entry.freq;
    ++seen;
  });
  check(exact && seen == expected.size(),
        "all 15 subset vectors carry their exact supports");

  harness::print_banner(std::cout, "P5", "D's conditional database",
                        "Figure 5 / Algorithm 3");
  const auto cond = core::conditional_database(built.plt, 4);
  std::map<core::PosVec, Count> got;
  for (const auto& [v, freq] : cond) got[v] += freq;
  for (const auto& [v, freq] : got)
    std::cout << "  " << core::to_string(v) << " freq=" << freq << '\n';
  const std::map<core::PosVec, Count> cond_expected = {
      {{1, 1, 1}, 1}, {{1, 1}, 1}, {{2, 1}, 1}, {{3}, 1}};
  check(got == cond_expected, "CD_D = {[1,1,1],[1,1],[2,1],[3]} all x1");

  std::cout << "\n== final answer: frequent itemsets at support 2 ==\n";
  const auto mined = core::mine(db, 2, core::Algorithm::kPltConditional);
  std::cout << mined.itemsets.to_string();
  check(mined.itemsets.size() == 13, "13 frequent itemsets");

  std::cout << (g_failures ? "\nARTIFACT CHECK FAILED\n"
                           : "\nall paper artifacts reproduced exactly\n");
  return g_failures ? EXIT_FAILURE : EXIT_SUCCESS;
}
