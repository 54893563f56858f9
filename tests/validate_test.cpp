// Structural validation (DESIGN.md S24): a sound PLT passes every
// paper-invariant check, a corrupted one is rejected with a diagnostic
// naming the violated invariant, the hooks in the parallel / OOC / codec
// paths run the checks inside a ValidationScope without changing results,
// and a scope turns the hooks on for its own thread only.
#include <gtest/gtest.h>

#include "compress/codec.hpp"
#include "compress/ooc_miner.hpp"
#include "core/builder.hpp"
#include "core/miner.hpp"
#include "core/thread_context.hpp"
#include "core/validate.hpp"
#include "datagen/quest.hpp"
#include "parallel/partition_miner.hpp"
#include "test_support.hpp"
#include "util/failpoint.hpp"

#include <filesystem>
#include <latch>
#include <limits>
#include <thread>

namespace plt::core {
namespace {

tdb::Database quest_db(std::uint64_t seed = 7) {
  datagen::QuestConfig cfg;
  cfg.transactions = 300;
  cfg.items = 40;
  cfg.seed = seed;
  return datagen::generate_quest(cfg);
}

TEST(Validate, SoundPltPasses) {
  const auto built = build_from_database(plt::testing::paper_table1(), 2);
  const ValidationReport report = validate(built.plt);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.vectors_checked, 0u);
  EXPECT_GT(report.nodes_checked, 0u);
  EXPECT_EQ(report.to_string(), "");
}

TEST(Validate, PrefixClosedBuildPassesMonotonicity) {
  BuildOptions build;
  build.insert_prefixes = true;
  const auto built = build_from_database(quest_db(), 3,
                                         tdb::ItemOrder::kById, build);
  ValidateOptions options;
  options.expect_prefix_closed = true;
  const ValidationReport report = validate(built.plt, options);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Validate, EmptyPltPasses) {
  const Plt plt(5);
  EXPECT_TRUE(validate(plt).ok());
}

TEST(Validate, CorruptedStoredSumRejected) {
  auto built = build_from_database(plt::testing::paper_table1(), 2);
  // Break Lemma 4.1.1: the stored sum no longer equals Σ positions. The
  // same corruption desynchronizes the sum index (Definition 4.1.3).
  ASSERT_FALSE(built.plt.bucket(built.plt.max_rank()).empty());
  const Plt::Ref ref = built.plt.bucket(built.plt.max_rank()).front();
  built.plt.entry(ref).sum -= 1;
  const ValidationReport report = validate(built.plt);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("sum"), std::string::npos)
      << report.to_string();
  EXPECT_THROW(validate_or_throw(built.plt, "test"), ValidationError);
}

TEST(Validate, CorruptedArenaOffsetRejected) {
  auto built = build_from_database(plt::testing::paper_table1(), 2);
  Partition* partition = nullptr;
  for (std::uint32_t k = built.plt.max_len(); k >= 1; --k)
    if (built.plt.partition(k) != nullptr &&
        !built.plt.partition(k)->empty()) {
      partition = built.plt.partition(k);
      break;
    }
  ASSERT_NE(partition, nullptr);
  // Entries must tile the arena contiguously (offset == id * k); shifting
  // one breaks the layout and must be rejected, not walked out of bounds.
  partition->entry(0).offset += 1;
  EXPECT_FALSE(validate(built.plt).ok());
}

TEST(Validate, BrokenSupportMonotonicityRejected) {
  BuildOptions build;
  build.insert_prefixes = true;
  auto built = build_from_database(plt::testing::paper_table1(), 2,
                                   tdb::ItemOrder::kById, build);
  // Inflate the frequency of some length-2 vector far above its length-1
  // prefix: legal for a conditional table, a lie for a prefix-closed one.
  ASSERT_NE(built.plt.partition(2), nullptr);
  ASSERT_FALSE(built.plt.partition(2)->empty());
  built.plt.partition(2)->entry(0).freq += 1000000;
  ValidateOptions options;
  options.expect_prefix_closed = true;
  EXPECT_FALSE(validate(built.plt, options).ok());
  // Without the prefix-closed claim the same table is structurally fine.
  EXPECT_TRUE(validate(built.plt).ok());
}

TEST(Validate, StandalonePartitionChecks) {
  Partition partition(2);
  partition.add(std::vector<Pos>{1, 2}, 3);
  partition.add(std::vector<Pos>{2, 1}, 1);
  EXPECT_TRUE(validate(partition, /*max_rank=*/4).ok());
  // Lemma 4.1.2 upper bound: sum 3 exceeds a max_rank of 2.
  EXPECT_FALSE(validate(partition, /*max_rank=*/2).ok());
  // Unknown alphabet (max_rank 0) skips only the upper bound.
  EXPECT_TRUE(validate(partition, /*max_rank=*/0).ok());
  partition.entry(1).sum = 77;
  EXPECT_FALSE(validate(partition, /*max_rank=*/4).ok());
}

// --- the physical tree Algorithm 3's top level mines: one rejected
// corruption per invariant ------------------------------------------------

/// Table 1's tree: A(1) > B(2) > C(3) > D(4), A > B > D, B > C > D, C > D.
TreeView table1_tree() {
  const auto built = build_from_database(plt::testing::paper_table1(), 2);
  return build_tree(built.view.db, built.plt.max_rank());
}

TEST(Validate, SoundTreePasses) {
  const TreeView tree = table1_tree();
  const ValidationReport report = validate(tree);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.nodes_checked, tree.node_count() - 1);
  EXPECT_TRUE(validate(TreeView::full_lexicographic(6)).ok());
  EXPECT_TRUE(validate(TreeView(3)).ok());
}

TEST(Validate, TreeRanksMustIncreaseAlongPaths) {
  TreeView tree = table1_tree();
  const TreeView::NodeId abc = tree.find(PosVec{1, 1, 1});
  ASSERT_NE(abc, TreeView::kRoot);
  tree.node(abc).rank = tree.node(tree.node(abc).parent).rank;  // Def. 4.1.2
  const ValidationReport report = validate(tree);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("Definition 4.1.2"), std::string::npos)
      << report.to_string();
  EXPECT_THROW(validate_or_throw(tree, "test"), ValidationError);
}

TEST(Validate, TreeRankAboveMaxRankRejected) {
  TreeView tree = table1_tree();
  const TreeView::NodeId abcd = tree.find(PosVec{1, 1, 1, 1});
  ASSERT_NE(abcd, TreeView::kRoot);
  tree.node(abcd).rank = tree.max_rank() + 1;  // Lemma 4.1.2 upper bound
  const ValidationReport report = validate(tree);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("Lemma 4.1.2"), std::string::npos)
      << report.to_string();
}

TEST(Validate, TreeNodeOutsideItsRankBucketRejected) {
  // Rows {1,3} and {2} over 8 ranks: moving the leaf from rank 3 to rank 5
  // keeps every path increasing and in bounds, but the rank index still
  // files it under 3 (Lemma 4.1.1 sum buckets, Definition 4.1.3 tiling).
  TreeView tree = TreeView::from_ranked_rows(
      tdb::Database::from_rows({{1, 3}, {2}}), 8);
  const TreeView::NodeId leaf = tree.find(PosVec{1, 2});
  ASSERT_NE(leaf, TreeView::kRoot);
  ASSERT_TRUE(validate(tree).ok());
  tree.node(leaf).rank = 5;
  const ValidationReport report = validate(tree);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("indexed under rank 3"),
            std::string::npos)
      << report.to_string();
}

TEST(Validate, TreeSupportBelowChildrenRejected) {
  TreeView tree = table1_tree();
  const TreeView::NodeId ab = tree.find(PosVec{1, 1});
  ASSERT_NE(ab, TreeView::kRoot);
  tree.support(ab) = 1;  // its children ABC and ABD hold 3 + 1 rows
  const ValidationReport report = validate(tree);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("below its children's total"),
            std::string::npos)
      << report.to_string();
}

TEST(Validate, TreeParentLinkOutOfPreorderRejected) {
  TreeView tree = table1_tree();
  const TreeView::NodeId a = tree.find(PosVec{1});
  ASSERT_NE(a, TreeView::kRoot);
  tree.node(a).parent = static_cast<TreeView::NodeId>(tree.node_count() - 1);
  const ValidationReport report = validate(tree);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("preorder"), std::string::npos)
      << report.to_string();
}

TEST(Validate, TreeNodeCountMustFitThirtyTwoBitIds) {
  // A tree past 2^32 nodes cannot be allocated in a test, so this checks
  // the one predicate the builder's abort and the validator share, at its
  // boundary.
  EXPECT_TRUE(TreeView::ids_fit(TreeView::kMaxNodes));
  EXPECT_FALSE(TreeView::ids_fit(TreeView::kMaxNodes + 1));
  EXPECT_EQ(TreeView::kMaxNodes,
            std::size_t{std::numeric_limits<TreeView::NodeId>::max()});
}

// Runs `fn` on a thread of its own, which starts outside every scope
// whatever the calling thread has open (the test binaries' PLT_VALIDATE
// scope included).
template <typename Fn>
void on_fresh_thread(Fn fn) {
  std::thread(fn).join();
}

TEST(Validate, HookRejectsCorruptTreeOnlyWhenEnabled) {
  TreeView tree = table1_tree();
  tree.support(TreeView::kRoot) = 0;
  {
    const ValidationScope guard;
    EXPECT_THROW(maybe_validate(tree, "corrupted"), ValidationError);
  }
  on_fresh_thread(
      [&] { EXPECT_NO_THROW(maybe_validate(tree, "corrupted")); });
}

// Only a scope turns the hooks on: the library reads no environment
// variable, and a thread that opened none validates nothing. Scopes nest,
// and the end of the outermost turns the hooks off.
TEST(Validate, EnabledToggleOverridesEnv) {
  on_fresh_thread([] {
    EXPECT_FALSE(validation_enabled());
    {
      const ValidationScope outer;
      {
        const ValidationScope inner;
        EXPECT_TRUE(validation_enabled());
      }
      EXPECT_TRUE(validation_enabled());
    }
    EXPECT_FALSE(validation_enabled());
  });
}

// --- thread isolation: a scope on one thread changes nothing on another.

// While thread B holds a scope open, the hook passes a corrupted tree on
// thread A, which has none; then B, inside its scope, is the one that
// throws.
TEST(ValidationIsolation, OnlyTheScopedThreadThrows) {
  TreeView tree = table1_tree();
  tree.support(TreeView::kRoot) = 0;
  std::latch scope_open(1);
  std::latch a_checked(1);
  std::thread b([&] {
    const ValidationScope guard;
    scope_open.count_down();
    a_checked.wait();
    EXPECT_THROW(maybe_validate(tree, "corrupted"), ValidationError);
  });
  on_fresh_thread([&] {
    scope_open.wait();
    EXPECT_FALSE(validation_enabled());
    EXPECT_NO_THROW(maybe_validate(tree, "corrupted"));
    a_checked.count_down();
  });
  b.join();
}

// What mine_parallel's crew and serve::Server's threads do: a context
// captured inside a scope turns the hooks on where it is bound, and one
// captured outside every scope leaves them off.
TEST(ValidationIsolation, ThreadContextCarriesTheFlag) {
  TreeView tree = table1_tree();
  tree.support(TreeView::kRoot) = 0;
  on_fresh_thread([&] {
    const ThreadContext plain;
    const ValidationScope guard;
    const ThreadContext validating;
    on_fresh_thread([&] {
      const BoundContext bound(validating);
      EXPECT_THROW(maybe_validate(tree, "corrupted"), ValidationError);
    });
    on_fresh_thread([&] {
      const BoundContext bound(plain);
      EXPECT_NO_THROW(maybe_validate(tree, "corrupted"));
    });
  });
}

// --- hook coverage: the mining paths run their validation inside a scope
// and still produce the reference results --------------------------------

TEST(Validate, SerialMineValidatesUnderToggle) {
  const ValidationScope guard;
  const auto db = quest_db(11);
  const auto result = mine(db, 3, Algorithm::kPltConditional);
  const auto reference = mine(db, 3, Algorithm::kApriori);
  plt::testing::expect_same_itemsets(result.itemsets, reference.itemsets,
                                     "validated serial mine");
}

TEST(Validate, ParallelMineValidatesEveryCd) {
  const auto db = quest_db(12);
  const auto reference = mine(db, 3, Algorithm::kPltConditional);
  const ValidationScope guard;
  parallel::ParallelOptions options;
  options.threads = 4;
  const auto result = parallel::mine_parallel(db, 3, options);
  plt::testing::expect_same_itemsets(result.itemsets, reference.itemsets,
                                     "validated parallel mine");
}

TEST(Validate, CodecRoundTripValidatesDecodedTree) {
  const ValidationScope guard;
  const auto built = build_from_database(quest_db(14), 2);
  const auto blob = compress::encode_plt(built.plt);
  const Plt decoded = compress::decode_plt(blob);
  EXPECT_EQ(decoded.num_vectors(), built.plt.num_vectors());
  EXPECT_EQ(decoded.total_freq(), built.plt.total_freq());
}

TEST(Validate, OocResumeValidatesConditionals) {
  FailpointRegistry::instance().disarm_all();
  const auto db = quest_db(15);
  const auto built = core::build_from_database(db, 3);
  ASSERT_GT(built.view.alphabet(), 0u);
  const auto blob = compress::encode_plt(built.plt);
  std::vector<Item> item_of(built.view.alphabet());
  for (Rank r = 1; r <= built.view.alphabet(); ++r)
    item_of[r - 1] = built.view.item_of(r);

  FrequentItemsets reference;
  compress::mine_from_blob(blob, item_of, 3, collect_into(reference));

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "validate_resume.pltk")
          .string();
  const ValidationScope guard;
  {
    // Crash a few ranks in, leaving a partial checkpoint behind.
    FailpointRegistry::Spec spec;
    spec.mode = FailpointRegistry::Mode::kOneShot;
    spec.n = 3;
    FailpointRegistry::instance().arm("ooc.rank", spec);
    compress::OocOptions options;
    options.checkpoint_path = path;
    FrequentItemsets partial;
    EXPECT_THROW(compress::mine_from_blob(blob, item_of, 3,
                                          collect_into(partial), nullptr,
                                          options),
                 InjectedFault);
    FailpointRegistry::instance().disarm_all();
  }
  // The resumed run rebuilds the blob's whole tree, which the tree
  // builder's hook validates before any rank is mined.
  compress::OocOptions options;
  options.checkpoint_path = path;
  compress::OocStats stats;
  FrequentItemsets resumed;
  compress::mine_from_blob(blob, item_of, 3, collect_into(resumed), &stats,
                           options);
  EXPECT_GT(stats.resumed_ranks, 0u);
  plt::testing::expect_same_itemsets(resumed, reference,
                                     "validated OOC resume");
  std::filesystem::remove(path);
}

TEST(Validate, HookRejectsCorruptionInsteadOfMining) {
  // End-to-end proof the hook is live: a corrupted PLT fed to the decoder
  // path through validate_or_throw surfaces ValidationError, not garbage.
  auto built = build_from_database(plt::testing::paper_table1(), 2);
  const Plt::Ref ref = built.plt.bucket(built.plt.max_rank()).front();
  built.plt.entry(ref).sum -= 1;
  {
    const ValidationScope guard;
    EXPECT_THROW(maybe_validate(built.plt, "corrupted"), ValidationError);
  }
  on_fresh_thread(
      [&] { EXPECT_NO_THROW(maybe_validate(built.plt, "corrupted")); });
}

}  // namespace
}  // namespace plt::core
