// Tests for the Partition hash table and the Plt container (sum buckets,
// iteration, memory accounting, rendering).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/plt.hpp"
#include "util/rng.hpp"

namespace plt::core {
namespace {

TEST(Partition, AddAndFind) {
  Partition p(3);
  bool created = false;
  const auto id = p.add(PosVec{1, 1, 2}, 2, created);
  EXPECT_TRUE(created);
  EXPECT_EQ(p.find(PosVec{1, 1, 2}), id);
  EXPECT_EQ(p.entry(id).freq, 2u);
  EXPECT_EQ(p.entry(id).sum, 4u);
  EXPECT_EQ(p.find(PosVec{1, 2, 1}), Partition::kNoEntry);
}

TEST(Partition, DuplicateAddAccumulates) {
  Partition p(2);
  bool created = false;
  const auto a = p.add(PosVec{2, 3}, 1, created);
  EXPECT_TRUE(created);
  const auto b = p.add(PosVec{2, 3}, 4, created);
  EXPECT_FALSE(created);
  EXPECT_EQ(a, b);
  EXPECT_EQ(p.entry(a).freq, 5u);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.total_freq(), 5u);
}

TEST(Partition, GrowsPastInitialIndexSize) {
  Partition p(1);
  for (Pos v = 1; v <= 1000; ++v) p.add(PosVec{v}, 1);
  EXPECT_EQ(p.size(), 1000u);
  for (Pos v = 1; v <= 1000; ++v) {
    const auto id = p.find(PosVec{v});
    ASSERT_NE(id, Partition::kNoEntry) << v;
    EXPECT_EQ(p.entry(id).freq, 1u);
  }
}

TEST(Partition, RandomizedAgainstStdMap) {
  Rng rng(55);
  Partition p(4);
  std::map<PosVec, Count> reference;
  for (int op = 0; op < 5000; ++op) {
    PosVec v;
    for (int i = 0; i < 4; ++i)
      v.push_back(static_cast<Pos>(rng.next_below(6) + 1));
    const Count freq = rng.next_below(3) + 1;
    p.add(v, freq);
    reference[v] += freq;
  }
  EXPECT_EQ(p.size(), reference.size());
  for (const auto& [v, freq] : reference) {
    const auto id = p.find(v);
    ASSERT_NE(id, Partition::kNoEntry);
    EXPECT_EQ(p.entry(id).freq, freq);
  }
}

TEST(Partition, IterationCoversAllEntriesOnce) {
  Partition p(2);
  p.add(PosVec{1, 1}, 1);
  p.add(PosVec{2, 1}, 2);
  p.add(PosVec{1, 3}, 3);
  std::set<std::pair<Pos, Pos>> seen;
  p.for_each([&](Partition::EntryId, std::span<const Pos> v,
                 const Partition::Entry&) {
    seen.insert({v[0], v[1]});
  });
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Partition, HashSpreads) {
  // Sanity: nearby vectors hash differently most of the time.
  std::set<std::uint64_t> hashes;
  for (Pos a = 1; a <= 16; ++a)
    for (Pos b = 1; b <= 16; ++b) hashes.insert(Partition::hash(PosVec{a, b}));
  EXPECT_GT(hashes.size(), 250u);
}

TEST(Partition, HashValuesArePinned) {
  // The values fix the index layout and order top-down's ActiveSet, so
  // they fix its emission order. Lengths 0, 1, 7, 8, 9 and 17 cover the
  // 8-lane block and tail boundaries.
  const struct {
    std::size_t length;
    std::uint64_t hash;
  } pins[] = {
      {0, 0x13b846dc84adcef5ull},  {1, 0x1c4889ed11cb6a83ull},
      {7, 0x1bf642fc8d29c76eull},  {8, 0xd7712cf370312e48ull},
      {9, 0x0e52e9be1c57c7eeull},  {17, 0x1a6ca2d85b97c42dull},
  };
  for (const auto& pin : pins) {
    PosVec v;
    for (std::size_t i = 0; i < pin.length; ++i)
      v.push_back(static_cast<Pos>(i + 1));
    EXPECT_EQ(Partition::hash(v), pin.hash) << "length " << pin.length;
  }
}

TEST(PartitionDeath, WrongLengthRejected) {
  Partition p(2);
  EXPECT_DEATH(p.add(PosVec{1}, 1), "length");
  EXPECT_DEATH(p.find(PosVec{1, 2, 3}), "length");
}

TEST(Plt, AddRoutesToCorrectPartitionAndBucket) {
  Plt plt(6);
  plt.add(PosVec{1, 2}, 1);      // sum 3, len 2
  plt.add(PosVec{3}, 2);         // sum 3, len 1
  plt.add(PosVec{1, 1, 1}, 1);   // sum 3, len 3
  plt.add(PosVec{6}, 1);         // sum 6, len 1

  EXPECT_EQ(plt.max_len(), 3u);
  EXPECT_EQ(plt.num_vectors(), 4u);
  EXPECT_EQ(plt.total_freq(), 5u);

  const auto bucket3 = plt.bucket(3);
  EXPECT_EQ(bucket3.size(), 3u);
  EXPECT_EQ(plt.bucket(6).size(), 1u);
  EXPECT_EQ(plt.bucket(1).size(), 0u);

  EXPECT_EQ(plt.freq_of(PosVec{3}), 2u);
  EXPECT_EQ(plt.freq_of(PosVec{2, 1}), 0u);
  EXPECT_EQ(plt.freq_of(PosVec{1, 2, 3, 4}), 0u);  // no such partition
}

TEST(Plt, DuplicateAddDoesNotDuplicateBucketEntry) {
  Plt plt(4);
  plt.add(PosVec{2, 2}, 1);
  plt.add(PosVec{2, 2}, 1);
  EXPECT_EQ(plt.bucket(4).size(), 1u);
  EXPECT_EQ(plt.freq_of(PosVec{2, 2}), 2u);
}

TEST(Plt, ForEachVisitsEverything) {
  Plt plt(8);
  plt.add(PosVec{1}, 1);
  plt.add(PosVec{2, 2}, 2);
  plt.add(PosVec{1, 1, 1}, 3);
  Count total = 0;
  std::size_t count = 0;
  plt.for_each([&](Plt::Ref, std::span<const Pos>,
                   const Partition::Entry& e) {
    total += e.freq;
    ++count;
  });
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(total, 6u);
}

TEST(Plt, ToStringListsPartitions) {
  Plt plt(4);
  plt.add(PosVec{1, 1}, 3);
  const auto text = plt.to_string();
  EXPECT_NE(text.find("D2:"), std::string::npos);
  EXPECT_NE(text.find("[1,1] sum=2 freq=3"), std::string::npos);
}

TEST(Plt, MemoryUsageGrowsWithContent) {
  Plt small(4);
  small.add(PosVec{1}, 1);
  Plt big(4);
  for (Pos a = 1; a <= 4; ++a)
    for (Pos b = 1; a + b <= 4; ++b) big.add(PosVec{a, b}, 1);
  EXPECT_GT(big.memory_usage(), 0u);
  EXPECT_GE(big.memory_usage(), small.memory_usage());
}

TEST(PltDeath, SumAboveMaxRankRejected) {
  Plt plt(3);
  EXPECT_DEATH(plt.add(PosVec{2, 2}, 1), "exceeds");
  EXPECT_DEATH(plt.add(PosVec{}, 1), "empty");
}

}  // namespace
}  // namespace plt::core
