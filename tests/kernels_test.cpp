// Differential tests for the vectorized kernel layer: the AVX2 backend,
// when compiled and supported, is pinned to the scalar reference (contract
// rule #1 — identical bits) on randomized and adversarial intersection
// inputs, and mine() output is checked
// byte-identical across backends in emission order, not just as
// canonicalized sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/counting.hpp"
#include "core/miner.hpp"
#include "harness/datasets.hpp"
#include "kernels/kernels.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace plt {
namespace {

using kernels::Dispatch;

std::vector<const Dispatch*> simd_backends() {
  std::vector<const Dispatch*> v;
  if (const Dispatch* d = kernels::dispatch_for(kernels::Backend::kAVX2))
    v.push_back(d);
  return v;
}

// Strictly increasing tidlist-like vector.
std::vector<std::uint32_t> random_sorted(Rng& rng, std::size_t n,
                                         std::uint32_t max_gap) {
  std::vector<std::uint32_t> v(n);
  std::uint32_t x = static_cast<std::uint32_t>(rng.next_below(4));
  for (auto& w : v) {
    x += 1 + static_cast<std::uint32_t>(rng.next_below(max_gap));
    w = x;
  }
  return v;
}

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  EXPECT_EQ(kernels::scalar_dispatch().backend, kernels::Backend::kScalar);
  EXPECT_STREQ(kernels::scalar_dispatch().name, "scalar");
  EXPECT_NE(kernels::dispatch_for(kernels::Backend::kScalar), nullptr);
  EXPECT_NE(&kernels::active(), nullptr);
}

TEST(KernelDispatch, SelectBackendSemantics) {
  const kernels::Backend before = kernels::active().backend;
  EXPECT_TRUE(kernels::select_backend(""));  // no-op
  EXPECT_EQ(kernels::active().backend, before);
  EXPECT_TRUE(kernels::select_backend("scalar"));
  EXPECT_EQ(kernels::active().backend, kernels::Backend::kScalar);
  EXPECT_TRUE(kernels::select_backend("auto"));
  EXPECT_EQ(kernels::active().backend, kernels::best_supported());
  // Unknown names change nothing; sse42 and simd name no backend.
  for (const char* name : {"neon", "sse42", "simd"}) {
    EXPECT_FALSE(kernels::select_backend(name)) << name;
    EXPECT_EQ(kernels::active().backend, kernels::best_supported()) << name;
  }
  // The AVX2 backend is selectable exactly when compiled in + CPU-supported.
  const bool available =
      kernels::dispatch_for(kernels::Backend::kAVX2) != nullptr;
  EXPECT_EQ(kernels::select_backend("avx2"), available);
  if (available) EXPECT_EQ(kernels::active().backend, kernels::Backend::kAVX2);
  EXPECT_TRUE(kernels::select_backend("auto"));
}

TEST(KernelDispatch, BestSupportedHasTable) {
  EXPECT_NE(kernels::dispatch_for(kernels::best_supported()), nullptr);
}

TEST(KernelDiff, IntersectSortedAndCount) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend compiled/supported";
  Rng rng(8);
  const struct {
    std::size_t na, nb;
    std::uint32_t gap_a, gap_b;
  } shapes[] = {
      {0, 0, 1, 1},       {0, 17, 1, 1},     {1, 1, 1, 1},
      {1, 1000, 1, 1},    {5, 7, 2, 2},      {8, 8, 2, 2},
      {9, 9, 3, 3},       {16, 33, 2, 2},    {100, 100, 2, 2},
      {255, 257, 3, 3},   {1000, 1000, 2, 2}, {4096, 4099, 4, 4},
      {31, 4096, 2, 2},  // galloping path (ratio > 32)
      {3, 4096, 1, 8},   // galloping, sparse big side
  };
  for (const auto& s : shapes) {
    for (int rep = 0; rep < 3; ++rep) {
      const auto a = random_sorted(rng, s.na, s.gap_a);
      const auto b = random_sorted(rng, s.nb, s.gap_b);
      std::vector<std::uint32_t> expected;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(expected));
      std::vector<std::uint32_t> out(std::min(s.na, s.nb) + 4, 0xdeadbeefu);
      const std::size_t ref = kernels::scalar_dispatch().intersect_sorted(
          a.data(), s.na, b.data(), s.nb, out.data());
      ASSERT_EQ(ref, expected.size());
      ASSERT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()));
      EXPECT_EQ(kernels::scalar_dispatch().intersect_count(a.data(), s.na,
                                                           b.data(), s.nb),
                ref);
      for (const Dispatch* d : backends) {
        std::fill(out.begin(), out.end(), 0xdeadbeefu);
        EXPECT_EQ(d->intersect_sorted(a.data(), s.na, b.data(), s.nb,
                                      out.data()),
                  ref)
            << d->name << " na=" << s.na << " nb=" << s.nb;
        EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
            << d->name << " na=" << s.na << " nb=" << s.nb;
        EXPECT_EQ(d->intersect_count(a.data(), s.na, b.data(), s.nb), ref)
            << d->name;
      }
      // Identical inputs and fully disjoint inputs are the branchy edges.
      std::vector<std::uint32_t> c = a;
      std::vector<std::uint32_t> disjoint(s.na);
      for (std::size_t i = 0; i < s.na; ++i)
        disjoint[i] = (s.na > 0 && !a.empty() ? a.back() : 0u) + 1u +
                      static_cast<std::uint32_t>(i);
      std::vector<std::uint32_t> out2(s.na + 4);
      for (const Dispatch* d : backends) {
        EXPECT_EQ(d->intersect_count(a.data(), s.na, c.data(), s.na), s.na)
            << d->name;
        EXPECT_EQ(d->intersect_count(a.data(), s.na, disjoint.data(), s.na),
                  0u)
            << d->name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: emission order (not just the canonicalized set) must be
// byte-identical across backends, the strictest observable contract.

void expect_identical_emission(const core::FrequentItemsets& a,
                               const core::FrequentItemsets& b,
                               const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ia = a.itemset(i);
    const auto ib = b.itemset(i);
    ASSERT_TRUE(ia.size() == ib.size() &&
                std::equal(ia.begin(), ia.end(), ib.begin()))
        << label << " itemset " << i;
    ASSERT_EQ(a.support(i), b.support(i)) << label << " support " << i;
  }
}

class BackendGuard {
 public:
  BackendGuard() : before_(kernels::active().backend) {}
  ~BackendGuard() { kernels::set_backend(before_); }

 private:
  kernels::Backend before_;
};

TEST(KernelEndToEnd, MineByteIdenticalAcrossBackends) {
  if (simd_backends().empty())
    GTEST_SKIP() << "no SIMD backend compiled/supported";
  const BackendGuard guard;
  const struct {
    const char* name;
    tdb::Database db;
    Count minsup;
    double minsup_frac;  // used when minsup == 0
  } cases[] = {
      // Dense generators need dataset-appropriate supports (the bench
      // sweeps use 0.60+ on chess-like); going lower explodes the
      // frequent-itemset count combinatorially.
      {"paper_table1", testing::paper_table1(), 2, 0.0},
      {"chess-like", harness::scaled_dataset("chess-like", 0.05), 0, 0.65},
      {"mushroom-like", harness::scaled_dataset("mushroom-like", 0.05), 0,
       0.30},
  };
  for (const auto& c : cases) {
    const Count minsup =
        c.minsup != 0 ? c.minsup
                      : harness::support_grid(c.db, {c.minsup_frac}).front();
    std::vector<core::Algorithm> algorithms = {
        core::Algorithm::kPltConditional, core::Algorithm::kEclat,
        core::Algorithm::kDEclat, core::Algorithm::kAprioriTid};
    // The top-down guard (rightly) refuses the generated datasets' long
    // transactions; the paper db exercises that path.
    if (std::string(c.name) == "paper_table1")
      algorithms.push_back(core::Algorithm::kPltTopDownCanonical);
    for (const core::Algorithm algorithm : algorithms) {
      kernels::set_backend(kernels::Backend::kScalar);
      const core::MineResult ref = core::mine(c.db, minsup, algorithm);
      for (const Dispatch* d : simd_backends()) {
        kernels::set_backend(d->backend);
        const core::MineResult got = core::mine(c.db, minsup, algorithm);
        expect_identical_emission(
            ref.itemsets, got.itemsets,
            std::string(c.name) + "/" + core::algorithm_name(algorithm) +
                "/" + d->name);
      }
    }
  }
}

TEST(KernelEndToEnd, CountSupportsVerticalMatchesTrie) {
  const BackendGuard guard;
  const auto db = harness::scaled_dataset("mushroom-like", 0.05);
  Rng rng(10);
  std::vector<Itemset> candidates;
  candidates.push_back({});  // empty candidate: support = |db|
  for (int i = 0; i < 60; ++i) {
    Itemset c;
    Item item = 1;
    const std::size_t len = 1 + rng.next_below(4);
    for (std::size_t k = 0; k < len; ++k) {
      item += 1 + static_cast<Item>(rng.next_below(8));
      c.push_back(item);
    }
    candidates.push_back(c);
  }
  // The trie maps each distinct candidate to one counter, so duplicate
  // candidates would be credited to a single index — dedupe first.
  std::sort(candidates.begin() + 1, candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  const auto trie = baselines::count_supports(db, candidates);
  for (const char* backend : {"scalar", "auto"}) {
    ASSERT_TRUE(kernels::select_backend(backend));
    EXPECT_EQ(baselines::count_supports_vertical(db, candidates), trie)
        << backend;
  }
}

}  // namespace
}  // namespace plt
