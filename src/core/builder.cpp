#include "core/builder.hpp"

#include "core/validate.hpp"
#include "obs/trace.hpp"

namespace plt::core {

Plt build_plt(const tdb::Database& ranked_db, Rank max_rank,
              const BuildOptions& options) {
  PLT_SPAN("build-plt");
  PLT_TRACE_COUNT("vectors-inserted", ranked_db.size());
  Plt plt(max_rank);
  PosVec v;
  for (std::size_t t = 0; t < ranked_db.size(); ++t) {
    const auto ranks = ranked_db[t];
    if (ranks.empty()) continue;
    v.clear();
    Rank prev = 0;
    for (const Rank r : ranks) {
      v.push_back(r - prev);
      prev = r;
    }
    plt.add(v, 1);
    if (options.insert_prefixes) {
      // Insert [p1..pm] for every m < k; prefixes share the arena layout so
      // repeated spans over `v` avoid any copying.
      for (std::size_t m = v.size() - 1; m >= 1; --m)
        plt.add(std::span<const Pos>(v.data(), m), 1);
    }
  }
  return plt;
}

TreeView build_tree(const tdb::Database& ranked_db, Rank max_rank) {
  PLT_SPAN("build-plt");
  PLT_TRACE_COUNT("vectors-inserted", ranked_db.size());
  TreeView tree = TreeView::from_ranked_rows(ranked_db, max_rank);
  maybe_validate(tree, "build_tree");
  return tree;
}

BuiltPlt build_from_database(const tdb::Database& db, Count min_support,
                             tdb::ItemOrder order,
                             const BuildOptions& options) {
  BuiltPlt built{build_ranked_view(db, min_support, order), Plt(1)};
  const auto max_rank =
      static_cast<Rank>(built.view.alphabet() == 0 ? 1
                                                   : built.view.alphabet());
  built.plt = build_plt(built.view.db, max_rank, options);
  return built;
}

}  // namespace plt::core
