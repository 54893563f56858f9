// Algorithm 1 (PLT Construction): second database scan — each transaction's
// frequent items become a position vector inserted (or counted) in the
// partition of its length. Optionally all proper prefixes are inserted too,
// which is "part A" of the top-down approach folded into construction, as
// §5 recommends for efficiency. build_tree() is the same scan into the
// physical tree form, which Algorithm 3's top level mines.
#pragma once

#include "core/plt.hpp"
#include "core/rank.hpp"
#include "core/tree_view.hpp"

namespace plt::core {

struct BuildOptions {
  /// Insert every proper prefix of each transaction vector with the same
  /// frequency (paper §5, top-down part A). Off for conditional mining.
  bool insert_prefixes = false;
};

/// Builds the PLT over an already-ranked database (items = ranks 1..n).
Plt build_plt(const tdb::Database& ranked_db, Rank max_rank,
              const BuildOptions& options = {});

/// Algorithm 1 in the physical tree form (§4.2, Figure 3(b)) over an
/// already-ranked database: the prefix tree Algorithm 3's top level walks
/// (see core/tree_view.hpp). On a thread inside a core::ValidationScope the
/// tree is checked before it is returned.
TreeView build_tree(const tdb::Database& ranked_db, Rank max_rank);

/// Convenience: full Algorithm 1 — rank, filter, and build in one call.
struct BuiltPlt {
  RankedView view;
  Plt plt;
};
BuiltPlt build_from_database(const tdb::Database& db, Count min_support,
                             tdb::ItemOrder order = tdb::ItemOrder::kById,
                             const BuildOptions& options = {});

}  // namespace plt::core
