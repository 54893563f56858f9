// Differential tests for the vectorized kernel layer: the AVX2 backend,
// when compiled and supported, is pinned to the scalar reference (contract
// rule #1 — identical bits, including the canonical group-varint bytes) on
// randomized and adversarial inputs, and mine() output is checked
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

// Sizes that straddle every vector width boundary plus a few big ones.
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  7,  8,   9,   15,  16,
                              17, 23, 31, 32, 33, 63, 64, 65, 100, 1000, 4096};

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

std::vector<std::uint32_t> varint_mix(Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> v(n);
  for (auto& w : v) {
    const std::uint64_t cls = rng.next_below(4);
    const std::uint32_t raw = static_cast<std::uint32_t>(rng.next_u64());
    w = cls == 0 ? (raw & 0xffu) : cls == 1 ? (raw & 0xffffu)
        : cls == 2 ? (raw & 0xffffffu) : raw;
  }
  return v;
}

TEST(KernelDiff, VarintBlockRoundTrip) {
  const auto backends = simd_backends();
  Rng rng(6);
  for (const std::size_t n : kSizes) {
    const auto values = varint_mix(rng, n);
    std::vector<std::uint8_t> ref_bytes(kernels::encoded_block_bound(n));
    const std::size_t ref_len = kernels::scalar_dispatch().encode_varint_block(
        values.data(), n, ref_bytes.data());
    // Scalar decode closes the loop.
    std::vector<std::uint32_t> decoded(n);
    EXPECT_EQ(kernels::scalar_dispatch().decode_varint_block(
                  ref_bytes.data(), ref_len, decoded.data(), n),
              ref_len);
    EXPECT_EQ(decoded, values);
    for (const Dispatch* d : backends) {
      // Canonical encoding: identical bytes, not just decodable ones.
      std::vector<std::uint8_t> got_bytes(kernels::encoded_block_bound(n));
      const std::size_t got_len =
          d->encode_varint_block(values.data(), n, got_bytes.data());
      ASSERT_EQ(got_len, ref_len) << d->name << " n=" << n;
      EXPECT_TRUE(std::equal(ref_bytes.begin(),
                             ref_bytes.begin() + static_cast<std::ptrdiff_t>(ref_len),
                             got_bytes.begin()))
          << d->name << " n=" << n;
      std::vector<std::uint32_t> got(n);
      EXPECT_EQ(d->decode_varint_block(ref_bytes.data(), ref_len, got.data(),
                                       n),
                ref_len)
          << d->name << " n=" << n;
      EXPECT_EQ(got, values) << d->name << " n=" << n;
      // Slack after the block must not change what is decoded.
      got_bytes.assign(ref_bytes.begin(), ref_bytes.end());
      got_bytes.resize(ref_len + 64, 0xee);
      EXPECT_EQ(d->decode_varint_block(got_bytes.data(), got_bytes.size(),
                                       got.data(), n),
                ref_len)
          << d->name << " n=" << n;
      EXPECT_EQ(got, values) << d->name << " n=" << n;
    }
  }
}

TEST(KernelDiff, VarintBlockTruncationIsAnError) {
  const auto backends = simd_backends();
  Rng rng(7);
  const auto values = varint_mix(rng, 37);
  std::vector<std::uint8_t> bytes(kernels::encoded_block_bound(values.size()));
  const std::size_t len = kernels::scalar_dispatch().encode_varint_block(
      values.data(), values.size(), bytes.data());
  std::vector<std::uint32_t> out(values.size());
  std::vector<const Dispatch*> all = {&kernels::scalar_dispatch()};
  all.insert(all.end(), backends.begin(), backends.end());
  for (const Dispatch* d : all) {
    for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, len / 2,
                                  len - 1}) {
      EXPECT_EQ(d->decode_varint_block(bytes.data(), cut, out.data(),
                                       values.size()),
                kernels::kDecodeError)
          << d->name << " cut=" << cut;
    }
    EXPECT_EQ(d->decode_varint_block(bytes.data(), 0, out.data(), 0),
              std::size_t{0})
        << d->name;
  }
}

TEST(KernelDiff, VarintBlockByteLengthBoundaries) {
  // Deterministic pins at every group-varint byte-length boundary,
  // including the full-width 0xffffffff lane: the encoder's truncating
  // byte-extraction casts (-Wconversion audit) must shed exactly the bits
  // the next lane re-reads.
  const std::vector<std::uint32_t> values = {
      0,        1,         0xffu,      0x100u,      0xffffu,
      0x10000u, 0xffffffu, 0x1000000u, 0xffffffffu};
  std::vector<std::uint8_t> bytes(kernels::encoded_block_bound(values.size()));
  const std::size_t len = kernels::scalar_dispatch().encode_varint_block(
      values.data(), values.size(), bytes.data());
  // 3 control bytes (groups of 4,4,1) + Σ byte lengths 1+1+1+2+2+3+3+4+4.
  EXPECT_EQ(len, 24u);
  std::vector<std::uint32_t> decoded(values.size());
  EXPECT_EQ(kernels::scalar_dispatch().decode_varint_block(
                bytes.data(), len, decoded.data(), values.size()),
            len);
  EXPECT_EQ(decoded, values);
  for (const Dispatch* d : simd_backends()) {
    std::vector<std::uint8_t> got_bytes(bytes.size());
    EXPECT_EQ(d->encode_varint_block(values.data(), values.size(),
                                     got_bytes.data()),
              len)
        << d->name;
    EXPECT_TRUE(std::equal(bytes.begin(),
                           bytes.begin() + static_cast<std::ptrdiff_t>(len),
                           got_bytes.begin()))
        << d->name;
    std::fill(decoded.begin(), decoded.end(), 0u);
    EXPECT_EQ(d->decode_varint_block(bytes.data(), len, decoded.data(),
                                     values.size()),
              len)
        << d->name;
    EXPECT_EQ(decoded, values) << d->name;
  }
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
