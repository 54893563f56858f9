// E6 — subset-checking microbenchmarks (google-benchmark): the paper calls
// subset checking "one of the heaviest steps in the mining process" (§6) and
// claims the positional encoding makes it light. Compares:
//   * positional streaming check over the PLT (distinct vectors only)
//   * sorted-set std::includes over the raw horizontal database
//   * per-vector positional_subset vs std::includes on decoded ranks
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "core/builder.hpp"
#include "core/subset_check.hpp"
#include "datagen/dense.hpp"
#include "datagen/quest.hpp"
#include "harness/backend.hpp"
#include "harness/tracing.hpp"
#include "tdb/bitmap.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"

namespace {

using namespace plt;

struct Fixture {
  tdb::Database db;
  core::RankedView view;
  core::Plt plt{1};
  std::vector<std::vector<Rank>> queries;

  Fixture(tdb::Database source, Count minsup) : db(std::move(source)) {
    view = core::build_ranked_view(db, minsup);
    plt = core::build_plt(view.db, static_cast<Rank>(view.alphabet()));
    Rng rng(5);
    for (int q = 0; q < 64; ++q) {
      std::vector<Rank> query;
      Rank r = 0;
      const auto len = 2 + rng.next_below(3);
      for (std::uint64_t i = 0; i < len; ++i) {
        r += static_cast<Rank>(rng.next_below(8) + 1);
        if (r > view.alphabet()) break;
        query.push_back(r);
      }
      if (!query.empty()) queries.push_back(std::move(query));
    }
  }

  // Sparse: almost every transaction is a distinct vector — the PLT scan's
  // worst case (no duplicate collapse).
  static const Fixture& sparse() {
    static const Fixture f = [] {
      datagen::QuestConfig cfg;
      cfg.transactions = 20000;
      cfg.items = 400;
      cfg.seed = 33;
      return Fixture(datagen::generate_quest(cfg), 20);
    }();
    return f;
  }

  // Dense-short: heavy duplication, so the PLT holds far fewer vectors than
  // there are transactions — the regime where the structure pays off.
  static const Fixture& dense() {
    static const Fixture f = [] {
      datagen::DenseConfig cfg;
      cfg.transactions = 20000;
      cfg.items = 24;
      cfg.density = 0.3;
      cfg.classes = 4;
      cfg.core_fraction = 0.7;
      cfg.seed = 34;
      return Fixture(datagen::generate_dense(cfg), 20);
    }();
    return f;
  }
};

void run_plt_scan(benchmark::State& state, const Fixture& fx) {
  std::size_t qi = 0;
  for (auto _ : state) {
    const auto& q = fx.queries[qi++ % fx.queries.size()];
    benchmark::DoNotOptimize(core::support_of(fx.plt, q));
  }
  state.SetLabel("distinct vectors: " + std::to_string(fx.plt.num_vectors()));
}

void run_horizontal_scan(benchmark::State& state, const Fixture& fx) {
  std::size_t qi = 0;
  for (auto _ : state) {
    const auto& q = fx.queries[qi++ % fx.queries.size()];
    benchmark::DoNotOptimize(core::support_of_scan(fx.view.db, q));
  }
  state.SetLabel("transactions: " + std::to_string(fx.view.db.size()));
}

void BM_Sparse_SupportViaPltScan(benchmark::State& state) {
  run_plt_scan(state, Fixture::sparse());
}
BENCHMARK(BM_Sparse_SupportViaPltScan)->Unit(benchmark::kMicrosecond);

void BM_Sparse_SupportViaHorizontalScan(benchmark::State& state) {
  run_horizontal_scan(state, Fixture::sparse());
}
BENCHMARK(BM_Sparse_SupportViaHorizontalScan)->Unit(benchmark::kMicrosecond);

void BM_Dense_SupportViaPltScan(benchmark::State& state) {
  run_plt_scan(state, Fixture::dense());
}
BENCHMARK(BM_Dense_SupportViaPltScan)->Unit(benchmark::kMicrosecond);

void BM_Dense_SupportViaHorizontalScan(benchmark::State& state) {
  run_horizontal_scan(state, Fixture::dense());
}
BENCHMARK(BM_Dense_SupportViaHorizontalScan)->Unit(benchmark::kMicrosecond);

// Third layout from the taxonomy: dense bitmaps (one bit per
// transaction×item). Queries reuse the fixtures' rank-space itemsets.
void run_bitmap_scan(benchmark::State& state, const Fixture& fx) {
  const tdb::BitmapView bitmap(fx.view.db);
  std::size_t qi = 0;
  for (auto _ : state) {
    const auto& q = fx.queries[qi++ % fx.queries.size()];
    benchmark::DoNotOptimize(
        bitmap.support_of(std::span<const Item>(q.data(), q.size())));
  }
  state.SetLabel("bitmap bytes: " + std::to_string(bitmap.memory_usage()));
}

void BM_Sparse_SupportViaBitmap(benchmark::State& state) {
  run_bitmap_scan(state, Fixture::sparse());
}
BENCHMARK(BM_Sparse_SupportViaBitmap)->Unit(benchmark::kMicrosecond);

void BM_Dense_SupportViaBitmap(benchmark::State& state) {
  run_bitmap_scan(state, Fixture::dense());
}
BENCHMARK(BM_Dense_SupportViaBitmap)->Unit(benchmark::kMicrosecond);

// Per-pair check: positional streaming vs decode-then-std::includes.
void BM_PairPositionalSubset(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::pair<core::PosVec, core::PosVec>> pairs;
  for (int i = 0; i < 256; ++i) {
    std::vector<Rank> small, big;
    Rank r = 0;
    for (int k = 0; k < 30; ++k) {
      r += static_cast<Rank>(rng.next_below(5) + 1);
      big.push_back(r);
      if (rng.next_bool(0.2)) small.push_back(r);
    }
    if (small.empty()) small.push_back(big[0]);
    pairs.emplace_back(core::to_positions(small), core::to_positions(big));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [x, y] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(core::positional_subset(x, y));
  }
}
BENCHMARK(BM_PairPositionalSubset);

void BM_PairDecodeThenIncludes(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::pair<core::PosVec, core::PosVec>> pairs;
  for (int i = 0; i < 256; ++i) {
    std::vector<Rank> small, big;
    Rank r = 0;
    for (int k = 0; k < 30; ++k) {
      r += static_cast<Rank>(rng.next_below(5) + 1);
      big.push_back(r);
      if (rng.next_bool(0.2)) small.push_back(r);
    }
    if (small.empty()) small.push_back(big[0]);
    pairs.emplace_back(core::to_positions(small), core::to_positions(big));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [x, y] = pairs[i++ % pairs.size()];
    const auto rx = core::to_ranks(x);  // materializes two rank buffers
    const auto ry = core::to_ranks(y);
    benchmark::DoNotOptimize(
        std::includes(ry.begin(), ry.end(), rx.begin(), rx.end()));
  }
}
BENCHMARK(BM_PairDecodeThenIncludes);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): every flag the shared harness
// consumed (--backend, --trace, --trace-folded) is stripped before the
// remaining arguments reach google-benchmark, which exits on any flag it
// does not know.
int main(int argc, char** argv) {
  const plt::Args args(argc, argv);
  if (!plt::harness::apply_backend_flag(args)) return 2;
  plt::harness::TraceScope trace_scope(args);
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view name = arg.substr(0, arg.find('='));
    if (name != "--backend" && name != "--trace" && name != "--trace-folded") {
      rest.push_back(argv[i]);
      continue;
    }
    // `--flag value`: Args took the next argument as the value unless it is
    // itself a flag, so skip exactly what Args consumed.
    if (name == arg && i + 1 < argc &&
        std::string_view(argv[i + 1]).rfind("--", 0) != 0)
      ++i;
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
