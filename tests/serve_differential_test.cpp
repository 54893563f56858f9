// Differential suite for plt-serve's query engine: on 20 random small
// databases, every support, rule and membership answer over 1–4 ranks
// (one rank past the alphabet included) must equal the decoded PLT's
// answer — core::support_of for support and rules, a scan of the stored
// vectors for membership.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "core/builder.hpp"
#include "core/subset_check.hpp"
#include "serve/query_engine.hpp"
#include "util/rng.hpp"

namespace plt::serve {
namespace {

/// `rows` random transactions over items 1..items.
tdb::Database random_database(Rng& rng, std::size_t rows, Item items) {
  tdb::Database db;
  std::vector<Item> row;
  for (std::size_t t = 0; t < rows; ++t) {
    row.clear();
    const std::uint64_t width = 1 + rng.next_below(items);
    for (std::uint64_t k = 0; k < width; ++k)
      row.push_back(static_cast<Item>(1 + rng.next_below(items)));
    db.add(row);
  }
  return db;
}

/// Whether `plt` stores exactly `ranks` as a vector, and its frequency.
bool stored(const core::Plt& plt, std::span<const Rank> ranks, Count& freq) {
  bool found = false;
  plt.for_each([&](core::Plt::Ref, std::span<const Pos> v,
                   const core::Partition::Entry& e) {
    if (v.size() != ranks.size()) return;
    Rank rank = 0;
    for (std::size_t k = 0; k < v.size(); ++k) {
      rank += v[k];
      if (rank != ranks[k]) return;
    }
    found = true;
    freq = e.freq;
  });
  return found;
}

/// Calls fn on every ascending itemset of 1–4 ranks from 1..limit.
void for_each_itemset(Rank limit,
                      const std::function<void(const std::vector<Rank>&)>& fn,
                      std::vector<Rank>& ranks, Rank from = 1) {
  for (Rank r = from; r <= limit; ++r) {
    ranks.push_back(r);
    fn(ranks);
    if (ranks.size() < 4) for_each_itemset(limit, fn, ranks, r + 1);
    ranks.pop_back();
  }
}

TEST(ServeDifferential, RandomDatabasesMatchTheDecodedPlt) {
  Rng rng(23);
  const core::MiningControl control;
  const std::string path = ::testing::TempDir() +
                           std::to_string(::getpid()) + "_differential.plt";
  for (int round = 0; round < 20; ++round) {
    const tdb::Database db = random_database(
        rng, 20 + rng.next_below(60), static_cast<Item>(6 + rng.next_below(7)));
    const Count minsup = 1 + rng.next_below(3);
    const std::vector<std::uint8_t> bytes =
        compress::encode_plt(core::build_from_database(db, minsup).plt);
    compress::write_blob_file(bytes, path);
    const auto blob = load_blob(path);
    const core::Plt plt = compress::decode_plt(bytes);
    ASSERT_GT(plt.max_rank(), 0u);

    QueryCounters counters;
    std::vector<Rank> scratch;
    for_each_itemset(plt.max_rank() + 1, [&](const std::vector<Rank>& ranks) {
      const std::string at = "round " + std::to_string(round) + ", " +
                             std::to_string(ranks.size()) + " ranks up to " +
                             std::to_string(ranks.back());
      Request request;
      request.ranks = ranks;
      request.opcode = Opcode::kSupport;
      Response answer = answer_query(request, *blob, control, counters);
      ASSERT_EQ(answer.status, Status::kOk) << at;
      const Count support = core::support_of(plt, ranks);
      EXPECT_EQ(answer.support, support) << at;

      request.opcode = Opcode::kMembership;
      answer = answer_query(request, *blob, control, counters);
      ASSERT_EQ(answer.status, Status::kOk) << at;
      Count freq = 0;
      const bool member = stored(plt, ranks, freq);
      EXPECT_EQ(answer.member, member) << at;
      EXPECT_EQ(answer.support, member ? freq : 0) << at;

      // Every split into antecedent and consequent.
      request.opcode = Opcode::kRule;
      for (std::size_t c = 0; c < ranks.size(); ++c) {
        request.ranks = ranks;
        request.ranks.erase(request.ranks.begin() +
                            static_cast<std::ptrdiff_t>(c));
        request.consequent = ranks[c];
        answer = answer_query(request, *blob, control, counters);
        ASSERT_EQ(answer.status, Status::kOk) << at;
        const Count antecedent = core::support_of(plt, request.ranks);
        EXPECT_EQ(answer.antecedent_support, antecedent) << at;
        EXPECT_EQ(answer.support, support) << at;
        EXPECT_EQ(answer.confidence_ppm,
                  antecedent == 0 ? 0 : support * 1000000 / antecedent)
            << at;
      }
    }, scratch);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace plt::serve
