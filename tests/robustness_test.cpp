// Robustness / failure-injection suite: randomly corrupted serialized
// blobs (including corruption re-sealed behind valid CRCs) and hostile
// FIMI inputs must produce clean errors (or, when the corruption happens
// to decode, a structurally valid result) — never crashes, hangs, or
// silent misuse.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "blob_test_support.hpp"
#include "compress/codec.hpp"
#include "compress/index.hpp"
#include "compress/ooc_miner.hpp"
#include "core/builder.hpp"
#include "core/miner.hpp"
#include "core/topdown.hpp"
#include "datagen/quest.hpp"
#include "serve/blob_store.hpp"
#include "tdb/io.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace plt {
namespace {

std::vector<std::uint8_t> sample_blob() {
  datagen::QuestConfig cfg;
  cfg.transactions = 300;
  cfg.items = 40;
  cfg.seed = 3;
  const auto built =
      core::build_from_database(datagen::generate_quest(cfg), 3);
  return compress::encode_plt(built.plt);
}

TEST(Fuzz, SingleByteCorruptionNeverCrashesDecode) {
  const auto blob = sample_blob();
  Rng rng(1);
  for (int trial = 0; trial < 400; ++trial) {
    auto mutated = blob;
    const auto pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<std::uint8_t>(rng.next_u64());
    try {
      const auto plt = compress::decode_plt(mutated);
      // If it decoded, the result must be structurally valid.
      plt.for_each([&](core::Plt::Ref, std::span<const Pos> v,
                       const core::Partition::Entry& e) {
        ASSERT_TRUE(core::is_valid(v, plt.max_rank()));
        (void)e;
      });
    } catch (const std::runtime_error&) {
      // expected for most corruptions
    }
  }
}

TEST(Fuzz, TruncationAtEveryPrefixLength) {
  const auto blob = sample_blob();
  // Check a spread of truncation points (full sweep is slow; step through).
  for (std::size_t len = 0; len < blob.size(); len += 7) {
    const std::span<const std::uint8_t> prefix(blob.data(), len);
    try {
      (void)compress::decode_plt(prefix);
    } catch (const std::runtime_error&) {
    }
    try {
      (void)compress::build_index(prefix);
    } catch (const std::runtime_error&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, RandomBytesAsBlob) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(256));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    try {
      (void)compress::decode_plt(junk);
    } catch (const std::runtime_error&) {
    }
  }
  SUCCEED();
}

// Drives a (possibly corrupt) blob through the full out-of-core mining
// path. Any outcome is fine except a crash or a hang; itemsets that do
// come out must respect min_support.
void mine_blob_expecting_no_crash(std::span<const std::uint8_t> blob,
                                  Count minsup) {
  // Oversized identity map so corrupted max_rank values up to the format
  // cap still exercise the miner instead of the item_of guard.
  static const std::vector<Item> item_of = [] {
    std::vector<Item> ids(4096);
    for (std::size_t i = 0; i < ids.size(); ++i)
      ids[i] = static_cast<Item>(i + 1);
    return ids;
  }();
  try {
    compress::mine_from_blob(blob, item_of, minsup,
                             [&](std::span<const Item>, Count support) {
                               ASSERT_GE(support, minsup);
                             });
  } catch (const std::runtime_error&) {
    // expected for most corruptions (CRC mismatch, truncated varints,
    // undersized item map when max_rank was mangled upward)
  }
}

TEST(Fuzz, OocMinerSingleByteCorruption) {
  const auto blob = sample_blob();
  Rng rng(4);
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = blob;
    const auto pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<std::uint8_t>(rng.next_u64());
    mine_blob_expecting_no_crash(mutated, 3);
  }
}

TEST(Fuzz, OocMinerTruncation) {
  const auto blob = sample_blob();
  for (std::size_t len = 0; len < blob.size(); len += 7)
    mine_blob_expecting_no_crash({blob.data(), len}, 3);
  SUCCEED();
}

TEST(Fuzz, OocMinerRandomBytes) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(256));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    mine_blob_expecting_no_crash(junk, 2);
  }
  SUCCEED();
}

// Plain mutations almost all stop at a frame CRC. This pass mutates
// payload bytes and then re-seals the frame CRC, so every mutation reaches
// the entry decoder and the value checks behind it. The contract is the
// same: a clean std::runtime_error or a structurally valid result, from
// decode_plt, build_index and the out-of-core miner alike.
TEST(Fuzz, ResealedPayloadCorruptionReachesValueChecks) {
  const auto blob = sample_blob();
  const auto spans = testing::frame_spans(blob);
  Rng rng(6);
  std::size_t decoded = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = blob;
    const testing::FrameSpan& span = spans[rng.next_below(spans.size())];
    const std::size_t flips = 1 + rng.next_below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      const auto pos =
          span.payload_begin +
          rng.next_below(span.payload_end - span.payload_begin);
      mutated[pos] = static_cast<std::uint8_t>(rng.next_u64());
    }
    testing::reseal_frame(mutated, span);
    try {
      const auto plt = compress::decode_plt(mutated);
      ++decoded;
      plt.for_each([&](core::Plt::Ref, std::span<const Pos> v,
                       const core::Partition::Entry&) {
        ASSERT_TRUE(core::is_valid(v, plt.max_rank()));
      });
    } catch (const std::runtime_error&) {
      ++rejected;
    }
    try {
      const auto index = compress::build_index(mutated);
      for (Rank sum = 1; sum <= index.max_rank; ++sum)
        compress::decode_bucket(
            mutated, index, sum, [&](std::span<const Pos> v, Count) {
              ASSERT_EQ(core::checked_sum(v, index.max_rank), sum);
            });
    } catch (const std::runtime_error&) {
    }
    mine_blob_expecting_no_crash(mutated, 3);
  }
  // Both outcomes occur, so the pass really gets past the checksums.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

// Hostile entries behind valid CRCs over max_rank 4: {0xFFFFFFFF, 2}, whose
// u32 position sum wraps to 1, and {0, 3}, with a zero position. Every
// reader must refuse both with a typed error; indexing them would hand the
// out-of-core overlay a bucket index out of range.
TEST(Fuzz, ValidCrcHostilePositionsThrowInEveryReader) {
  const std::vector<Item> item_of = {1, 2, 3, 4};
  for (const std::vector<std::uint32_t>& positions :
       {std::vector<std::uint32_t>{0xFFFFFFFFu, 2},
        std::vector<std::uint32_t>{0, 3}}) {
    const auto blob =
        testing::sealed_blob(4, {testing::block_frame(2, {{positions, 1}})});
    EXPECT_THROW((void)compress::decode_plt(blob), std::runtime_error);
    EXPECT_THROW((void)compress::build_index(blob), std::runtime_error);
    EXPECT_THROW(compress::mine_from_blob(blob, item_of, 1,
                                          [](std::span<const Item>, Count) {}),
                 std::runtime_error);
    const std::string path = ::testing::TempDir() + "hostile_positions.plt";
    compress::write_blob_file(blob, path);
    EXPECT_THROW((void)serve::load_blob(path), std::runtime_error);
    std::remove(path.c_str());
  }
}

TEST(Fuzz, HostileFimiInputs) {
  const char* inputs[] = {
      "",                          // empty
      "\n\n\n",                    // blank lines
      "1 2 3",                     // no trailing newline
      "0 0 0\n",                   // zeros are valid ids
      "4294967295\n",              // max u32
      "1 1 1 1 1\n",               // duplicates
      "   7   \n",                 // whitespace
  };
  for (const char* text : inputs) {
    std::istringstream in(text);
    const auto db = tdb::read_fimi(in);  // must not throw on these
    (void)db;
  }
  const char* bad[] = {
      "1 -2\n",            // negative
      "abc\n",             // letters
      "1 2x\n",            // trailing garbage
      "4294967296\n",      // overflow
      "1,2,3\n",           // wrong separator
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW((void)tdb::read_fimi(in), std::runtime_error) << text;
  }
}

TEST(Fuzz, MiningNeverBreaksOnDegenerateShapes) {
  // Single-item universe, all-identical rows, one giant transaction (below
  // the guard), staircase rows.
  std::vector<tdb::Database> shapes;
  shapes.push_back(tdb::Database::from_rows({{1}, {1}, {1}}));
  {
    tdb::Database db;
    for (int i = 0; i < 100; ++i) db.add({1, 2, 3, 4, 5});
    shapes.push_back(std::move(db));
  }
  {
    // One maximal 14-item transaction: 2^14-1 frequent itemsets at
    // minsup 1. (Kept at 14 deliberately — the candidate-generation
    // baselines are quadratic in per-transaction candidates, so larger
    // single transactions belong behind the top-down-style guards, not in
    // a smoke test.)
    tdb::Database db;
    std::vector<Item> big;
    for (Item i = 1; i <= 14; ++i) big.push_back(i);
    db.add(big);
    shapes.push_back(std::move(db));
  }
  {
    tdb::Database db;
    std::vector<Item> row;
    for (Item i = 1; i <= 12; ++i) {
      row.push_back(i);
      db.add(row);
    }
    shapes.push_back(std::move(db));
  }
  for (const auto& db : shapes) {
    for (const Count minsup : {1u, 2u, 1000u}) {
      for (const core::Algorithm algorithm : core::all_algorithms()) {
        try {
          const auto result = core::mine(db, minsup, algorithm);
          for (std::size_t i = 0; i < result.itemsets.size(); ++i)
            ASSERT_GE(result.itemsets.support(i), minsup);
        } catch (const core::TopDownOverflow&) {
          // acceptable on the giant-transaction shape
        }
      }
    }
  }
}

}  // namespace
}  // namespace plt
