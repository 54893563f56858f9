// Whole-structure validity checking for the PLT (S24): every invariant the
// paper states about the structure, machine-checked over a live tree so
// tests, fuzzers and plt-mine --validate can reject a corrupted or
// mis-merged structure instead of silently mining garbage.
//
// Invariants checked, mapped to the paper (see DESIGN.md S24 for the full
// table):
//   * Definition 4.1.2 — every position value is >= 1.
//   * Lemma 4.1.1     — each entry's stored sum equals the prefix-sum of
//                       its positions (Rank/pos consistency).
//   * Lemma 4.1.2     — length/sum bounds: a vector of length k satisfies
//                       k <= sum <= max_rank (the encoding is injective
//                       only inside these bounds).
//   * Definition 4.1.3 — partition D_k holds vectors of exactly length k;
//                       the sum index buckets each vector under its sum,
//                       exactly once.
//   * Lexicographic tree shape (§4.2, Figure 3(b)) — the physical tree
//                       (core/tree_view.hpp) keeps its nodes in
//                       lexicographic preorder with strictly increasing
//                       ranks along every path, depth <= rank <= max_rank,
//                       each node exactly once in its own rank's bucket,
//                       support(n) >= Σ support(children), and a node count
//                       that fits 32-bit ids. A PLT is checked through the
//                       tree it converts to.
//   * Property 4.1.1 (injectivity in practice) — no duplicate vectors in a
//                       partition, and the hash index resolves every stored
//                       vector back to its own entry.
//   * Support monotonicity along paths — for prefix-closed tables (§5
//                       top-down part A, insert_prefixes builds), a
//                       prefix's frequency is >= each extension's.
//
// The checks are always compiled in; the *hooks* in the mining paths
// (build_tree, which serves the facade and mine_parallel;
// TreeView::from_rows, which serves from_plt and the blob miner;
// TreeView::rebuild, each pooled frame the projection engine rebuilds in
// place; decode_plt) fire only on a thread inside a ValidationScope
// (core/thread_context.hpp), such as the one plt-mine --validate opens,
// and on the threads started for its work. The validator opens no trace spans, so
// golden traces are identical with validation on or off.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "core/plt.hpp"
#include "core/thread_context.hpp"
#include "core/tree_view.hpp"

namespace plt::core {

struct ValidateOptions {
  /// Check support monotonicity along tree paths (freq(prefix) >=
  /// freq(extension)). Only meaningful for prefix-closed tables built with
  /// BuildOptions::insert_prefixes (§5 top-down part A); conditional-mode
  /// tables legitimately store extensions without their prefixes.
  bool expect_prefix_closed = false;
};

/// One violated invariant: where it was found and what went wrong.
struct ValidationIssue {
  std::string where;    ///< e.g. "D3 entry 7" or "tree node [1,2]"
  std::string message;  ///< which invariant failed and the observed values
};

struct ValidationReport {
  std::vector<ValidationIssue> issues;
  std::size_t vectors_checked = 0;  ///< partition entries visited
  std::size_t nodes_checked = 0;    ///< materialized tree nodes visited

  bool ok() const { return issues.empty(); }
  /// Multi-line rendering of every issue (empty string when ok).
  std::string to_string() const;
};

/// Validates one partition in isolation. `max_rank` bounds the Lemma 4.1.2
/// sum check; pass 0 when the alphabet is unknown (bounds are then skipped).
ValidationReport validate(const Partition& partition, Rank max_rank = 0);

/// Validates a whole PLT: every partition, the sum index, and — when those
/// hold — the physical tree it converts to.
ValidationReport validate(const Plt& plt, const ValidateOptions& options = {});

/// Validates a physical tree: preorder links, ranks strictly increasing
/// along paths (Definition 4.1.2), depth <= rank <= max_rank (Lemma 4.1.2),
/// the per-rank index tiling every node once under its own rank (Lemma
/// 4.1.1 / Definition 4.1.3), support(n) >= Σ support(children), and a node
/// count within 32-bit ids.
ValidationReport validate(const TreeView& tree);

/// Raised by validate_or_throw; carries the full report text.
class ValidationError : public std::runtime_error {
 public:
  explicit ValidationError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Throws ValidationError with `context` and the issue list when the PLT is
/// invalid; returns normally otherwise.
void validate_or_throw(const Plt& plt, const char* context,
                       const ValidateOptions& options = {});
void validate_or_throw(const TreeView& tree, const char* context);

/// Convenience used at the mining-path hook points: validate_or_throw, but
/// only when validation_enabled().
inline void maybe_validate(const Plt& plt, const char* context,
                           const ValidateOptions& options = {}) {
  if (validation_enabled()) validate_or_throw(plt, context, options);
}
inline void maybe_validate(const TreeView& tree, const char* context) {
  if (validation_enabled()) validate_or_throw(tree, context);
}

}  // namespace plt::core
