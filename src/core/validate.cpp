#include "core/validate.hpp"

#include <sstream>

#include "core/position_vector.hpp"

namespace plt::core {

namespace {

void issue(ValidationReport& report, std::string where, std::string message) {
  report.issues.push_back({std::move(where), std::move(message)});
}

std::string entry_where(std::uint32_t length, Partition::EntryId id) {
  return "D" + std::to_string(length) + " entry " + std::to_string(id);
}

/// Partition-level checks shared by both validate() overloads. Appends to
/// `report` instead of returning so the Plt validator accumulates across
/// partitions. Returns false when the arena layout itself is broken — the
/// caller must then skip any check that would read vector contents.
bool validate_partition_into(const Partition& p, Rank max_rank,
                             ValidationReport& report) {
  const std::uint32_t k = p.length();
  const std::string dk = "D" + std::to_string(k);
  if (k == 0) {
    issue(report, dk, "partition length is 0 (Definition 4.1.3 needs k >= 1)");
    return false;
  }
  // Arena layout: entries are appended contiguously, so entry id's vector
  // occupies [id*k, id*k + k). A corrupted offset would make positions()
  // read out of bounds, so this check gates all content checks below.
  bool layout_ok = true;
  if (p.arena_size() != p.size() * k) {
    issue(report, dk,
          "arena holds " + std::to_string(p.arena_size()) +
              " positions but " + std::to_string(p.size()) +
              " entries of length " + std::to_string(k) + " need " +
              std::to_string(p.size() * k));
    layout_ok = false;
  }
  for (Partition::EntryId id = 0; id < p.size(); ++id) {
    const Partition::Entry& e = p.entry(id);
    if (e.offset != static_cast<std::uint64_t>(id) * k) {
      issue(report, entry_where(k, id),
            "arena offset " + std::to_string(e.offset) +
                " does not match the append layout (expected " +
                std::to_string(static_cast<std::uint64_t>(id) * k) + ")");
      layout_ok = false;
    }
  }
  if (!layout_ok) return false;

  for (Partition::EntryId id = 0; id < p.size(); ++id) {
    ++report.vectors_checked;
    const Partition::Entry& e = p.entry(id);
    const std::span<const Pos> v = p.positions(id);
    Rank sum = 0;
    bool positions_ok = true;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] == 0) {
        issue(report, entry_where(k, id),
              "position " + std::to_string(i) +
                  " is 0 (Definition 4.1.2 needs every position >= 1)");
        positions_ok = false;
      }
      sum += v[i];
    }
    if (!positions_ok) continue;
    if (e.sum != sum)
      issue(report, entry_where(k, id),
            "stored sum " + std::to_string(e.sum) +
                " != position prefix-sum " + std::to_string(sum) +
                " (Lemma 4.1.1)");
    if (sum < k)
      issue(report, entry_where(k, id),
            "sum " + std::to_string(sum) + " < length " + std::to_string(k) +
                " (Lemma 4.1.2 lower bound)");
    if (max_rank != 0 && sum > max_rank)
      issue(report, entry_where(k, id),
            "sum " + std::to_string(sum) + " exceeds max_rank " +
                std::to_string(max_rank) + " (Lemma 4.1.2 upper bound)");
    // The hash index must resolve the vector back to this exact entry: a
    // miss means index corruption, a different id means a duplicate vector
    // — either way the injectivity of Property 4.1.1 is broken in practice.
    const Partition::EntryId found = p.find(v);
    if (found != id)
      issue(report, entry_where(k, id),
            found == Partition::kNoEntry
                ? std::string("hash index does not resolve the stored vector")
                : "hash index resolves the vector to entry " +
                      std::to_string(found) + " (duplicate vector)");
  }
  return true;
}

std::string node_where(TreeView::NodeId id, Rank rank) {
  return "tree node " + std::to_string(id) + " (rank " + std::to_string(rank) +
         ")";
}

/// The physical-tree invariants. Returns false when the parent links
/// themselves are broken (the remaining checks then have no tree to read).
bool validate_tree_into(const TreeView& tree, ValidationReport& report) {
  using NodeId = TreeView::NodeId;
  const std::size_t n = tree.node_count();
  if (!TreeView::ids_fit(n)) {
    issue(report, "tree",
          std::to_string(n) + " nodes exceed 32-bit node ids");
    return false;
  }
  if (tree.node(TreeView::kRoot).rank != 0)
    issue(report, "tree root", "root rank is not 0");
  // Preorder: every node's parent lies on the root path of the node before
  // it. `open` is that path; last_child[d] is the rank of open[d]'s latest
  // child, which the next child must exceed (siblings by ascending rank).
  std::vector<NodeId> open{TreeView::kRoot};
  std::vector<Rank> last_child{0};
  std::vector<Count> child_support(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    const auto id = static_cast<NodeId>(i);
    const TreeView::Node& node = tree.node(id);
    ++report.nodes_checked;
    while (open.size() > 1 && open.back() != node.parent) {
      open.pop_back();
      last_child.pop_back();
    }
    if (open.back() != node.parent) {
      issue(report, node_where(id, node.rank),
            "parent " + std::to_string(node.parent) +
                " is not on the path of the node before it (lexicographic "
                "preorder)");
      return false;
    }
    const Rank parent_rank = tree.node(node.parent).rank;
    if (node.rank <= parent_rank)
      issue(report, node_where(id, node.rank),
            "rank does not exceed its parent's rank " +
                std::to_string(parent_rank) + " (Definition 4.1.2)");
    else if (node.rank <= last_child.back())
      issue(report, node_where(id, node.rank),
            "sibling ranks out of lexicographic order (after " +
                std::to_string(last_child.back()) + ")");
    const std::size_t depth = open.size();
    if (node.rank < depth || node.rank > tree.max_rank())
      issue(report, node_where(id, node.rank),
            "rank outside [depth " + std::to_string(depth) + ", max_rank " +
                std::to_string(tree.max_rank()) + "] (Lemma 4.1.2)");
    child_support[node.parent] += tree.support(id);
    last_child.back() = node.rank;
    open.push_back(id);
    last_child.push_back(0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<NodeId>(i);
    if (tree.support(id) < child_support[i])
      issue(report, node_where(id, tree.node(id).rank),
            "support " + std::to_string(tree.support(id)) +
                " is below its children's total " +
                std::to_string(child_support[i]));
  }
  // The per-rank index (Lemma 4.1.1 sum buckets) tiles the nodes: each
  // sits exactly once, under its own rank.
  std::vector<char> seen(n, 0);
  std::size_t bucketed = 0;
  for (Rank j = 1; j <= tree.max_rank(); ++j) {
    for (const NodeId id : tree.bucket(j)) {
      const std::string where = "rank bucket " + std::to_string(j);
      if (id == TreeView::kRoot || id >= n) {
        issue(report, where, "dangling node id " + std::to_string(id));
        continue;
      }
      ++bucketed;
      if (tree.node(id).rank != j)
        issue(report, where,
              node_where(id, tree.node(id).rank) + " is indexed under rank " +
                  std::to_string(j) + " (Definition 4.1.3)");
      if (seen[id] != 0)
        issue(report, where,
              node_where(id, tree.node(id).rank) +
                  " is indexed more than once");
      seen[id] = 1;
    }
  }
  if (bucketed != n - 1)
    issue(report, "rank index",
          std::to_string(bucketed) + " indexed node(s) for " +
              std::to_string(n - 1) + " nodes");
  return true;
}

/// Support monotonicity of a prefix-closed table, read off its tree: every
/// stored prefix's frequency (a node's end frequency) is at least each
/// stored extension's, and no internal node is a path nobody stored.
void validate_prefix_closed_into(const TreeView& tree,
                                 ValidationReport& report) {
  const std::size_t n = tree.node_count();
  std::vector<Count> end_freq(n);
  std::vector<char> internal(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    end_freq[i] = tree.support(static_cast<TreeView::NodeId>(i));
  for (std::size_t i = 1; i < n; ++i) {
    const auto id = static_cast<TreeView::NodeId>(i);
    end_freq[tree.node(id).parent] -= tree.support(id);
    internal[tree.node(id).parent] = 1;
  }
  for (std::size_t i = 1; i < n; ++i) {
    const auto id = static_cast<TreeView::NodeId>(i);
    const TreeView::NodeId parent = tree.node(id).parent;
    if (parent != TreeView::kRoot && end_freq[parent] < end_freq[i])
      issue(report, "tree node " + core::to_string(tree.path(id)),
            "support " + std::to_string(end_freq[i]) +
                " exceeds its prefix's support " +
                std::to_string(end_freq[parent]) +
                " (monotonicity along paths)");
    if (internal[i] != 0 && end_freq[i] == 0)
      issue(report, "tree node " + core::to_string(tree.path(id)),
            "internal node with frequency 0 in a prefix-closed table");
  }
}

}  // namespace

std::string ValidationReport::to_string() const {
  std::ostringstream out;
  for (const ValidationIssue& i : issues)
    out << i.where << ": " << i.message << '\n';
  return out.str();
}

ValidationReport validate(const Partition& partition, Rank max_rank) {
  ValidationReport report;
  validate_partition_into(partition, max_rank, report);
  return report;
}

ValidationReport validate(const Plt& plt, const ValidateOptions& options) {
  ValidationReport report;
  bool contents_ok = true;
  for (std::uint32_t k = 1; const Partition* p = plt.partition(k); ++k) {
    if (p->length() != k) {
      issue(report, "D" + std::to_string(k),
            "partition at slot " + std::to_string(k) + " has length " +
                std::to_string(p->length()) + " (Definition 4.1.3)");
      contents_ok = false;
      continue;
    }
    if (!validate_partition_into(*p, plt.max_rank(), report))
      contents_ok = false;
  }
  // The sum index (Figure 3(a)): every stored vector appears in exactly the
  // bucket of its sum, exactly once. Broken layouts above make entry sums
  // unreliable, so the cross-check only runs on a sound arena.
  if (contents_ok) {
    std::vector<std::vector<char>> seen;
    for (std::uint32_t k = 1; const Partition* p = plt.partition(k); ++k)
      seen.emplace_back(p->size(), 0);
    std::size_t bucketed = 0;
    for (Rank s = 1; s <= plt.max_rank(); ++s) {
      for (const Plt::Ref ref : plt.bucket(s)) {
        const std::string where = "bucket " + std::to_string(s);
        const Partition* p = plt.partition(ref.length);
        if (p == nullptr || ref.id >= p->size()) {
          issue(report, where,
                "dangling ref (length " + std::to_string(ref.length) +
                    ", id " + std::to_string(ref.id) + ")");
          continue;
        }
        ++bucketed;
        if (p->entry(ref.id).sum != s)
          issue(report, where,
                entry_where(ref.length, ref.id) + " has sum " +
                    std::to_string(p->entry(ref.id).sum) +
                    " but is indexed under " + std::to_string(s));
        char& mark = seen[ref.length - 1][ref.id];
        if (mark != 0)
          issue(report, where,
                entry_where(ref.length, ref.id) +
                    " is indexed more than once");
        mark = 1;
      }
    }
    if (bucketed != plt.num_vectors())
      issue(report, "sum index",
            std::to_string(plt.num_vectors() - bucketed) +
                " stored vector(s) missing from the sum index");
  }
  // The tree form is only defined over well-formed vectors.
  if (report.ok()) {
    const TreeView tree = TreeView::from_plt(plt);
    if (validate_tree_into(tree, report) && options.expect_prefix_closed)
      validate_prefix_closed_into(tree, report);
  }
  return report;
}

ValidationReport validate(const TreeView& tree) {
  ValidationReport report;
  validate_tree_into(tree, report);
  return report;
}

void validate_or_throw(const Plt& plt, const char* context,
                       const ValidateOptions& options) {
  const ValidationReport report = validate(plt, options);
  if (report.ok()) return;
  throw ValidationError(std::string(context) + ": PLT validation failed (" +
                        std::to_string(report.issues.size()) +
                        " issue(s))\n" + report.to_string());
}

void validate_or_throw(const TreeView& tree, const char* context) {
  const ValidationReport report = validate(tree);
  if (report.ok()) return;
  throw ValidationError(std::string(context) + ": tree validation failed (" +
                        std::to_string(report.issues.size()) +
                        " issue(s))\n" + report.to_string());
}

}  // namespace plt::core
