// Physical tree form of the PLT — the paper's Figure 3(b) ("a physical tree
// may also be assumed", §4.2) and the full lexicographic tree of Figure 1.
//
// The tree is flat: nodes sit in lexicographic preorder, and each stores
// its parent, its rank and its path support (the rows whose rank list
// starts with the node's path). Parent and rank share one 8-byte link, so
// a walk up the tree touches half the memory; supports sit apart. A
// per-rank node index lists the nodes of each rank in preorder — Lemma
// 4.1.1's sum buckets, since a node's path sums to its rank. A tree never
// changes while it is mined, which is what Algorithm 3 needs at every
// depth: CD_j is read off the nodes of rank j by walking parent links, so
// the paper's "Update PLT with V'" costs nothing (a node's prefix already
// is its parent). The projection engine's conditional frames are trees
// too, each rebuilt in place for the next projection (rebuild()). Every
// builder orders its rows as Algorithm 1 does, by distribution rather than
// comparison: rows not already in tree order go through an MSD radix pass
// over rank positions, which also counts the nodes to allocate. What
// only navigation needs — children, end frequencies — is computed on
// demand. Conversion to and from the table form is lossless (tests enforce
// the round trip).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/plt.hpp"
#include "tdb/database.hpp"

namespace plt::core {

class TreeView {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kRoot = 0;
  /// Node ids are 32-bit: a tree may hold at most this many nodes (root
  /// included). Construction aborts past it, as Partition::add does past a
  /// 32-bit arena, and the validator rejects it.
  static constexpr std::size_t kMaxNodes = 0xffffffffull;
  static constexpr bool ids_fit(std::size_t node_count) {
    return node_count <= kMaxNodes;
  }

  struct Node {
    NodeId parent = kRoot;
    Rank rank = 0;  ///< prefix sum of the path's positions (Lemma 4.1.1)
  };

  /// The root alone over an alphabet of `max_rank` ranks.
  explicit TreeView(Rank max_rank);

  /// Algorithm 1 in tree form over an already-ranked database (items are
  /// ranks 1..max_rank): every non-empty row, weighted 1.
  static TreeView from_ranked_rows(const tdb::Database& ranked_db,
                                   Rank max_rank);

  /// Weighted rank rows, back to back: row i is ranks[start[i] ..
  /// start[i+1]), counted weights[i] times.
  struct Rows {
    std::vector<Rank> ranks;
    std::vector<std::size_t> start{0};
    std::vector<Count> weights;

    /// Appends a well-formed position vector as its rank row (prefix
    /// sums). A zero weight (a removal tombstone) adds no row.
    void add(std::span<const Pos> v, Count weight);
    std::size_t size() const { return weights.size(); }
    /// Empties the rows, keeping every array's capacity.
    void clear() {
      ranks.clear();
      start.assign(1, 0);
      weights.clear();
    }
  };

  /// The tree of `rows` over ranks 1..max_rank: the one rows-to-tree
  /// builder, behind from_plt and the out-of-core blob miner. On a thread
  /// inside a core::ValidationScope the result passes the structural
  /// validator (`context` names the caller in its error).
  static TreeView from_rows(const Rows& rows, Rank max_rank,
                            const char* context);

  /// Makes this tree from_rows(rows, max_rank, context) in place: the
  /// node, support and bucket arrays and the build scratch keep their
  /// capacity, so a tree rebuilt for every projection stops allocating
  /// once it has seen its largest input. Validated like from_rows. Returns
  /// true when the rows did not come in tree order and were distributed.
  bool rebuild(const Rows& rows, Rank max_rank, const char* context);

  /// The tree of every vector stored in `plt`, weighted by its frequency.
  /// Zero-frequency entries (removal tombstones) contribute no path.
  static TreeView from_plt(const Plt& plt);

  /// The full lexicographic tree over an alphabet of `max_rank` items
  /// (Figure 1 / Figure 2), with all supports zero. Exponential in
  /// max_rank — guarded to max_rank <= 16.
  static TreeView full_lexicographic(Rank max_rank);

  /// Converts back to the table form: every path with a non-zero end
  /// frequency becomes a vector.
  Plt to_plt(Rank max_rank) const;

  Rank max_rank() const { return max_rank_; }
  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  /// Rows whose rank list starts with the path to `id` (the root's is
  /// every row).
  Count support(NodeId id) const { return supports_[id]; }
  /// Mutable access, for corruption tests of the validator.
  Node& node(NodeId id) { return nodes_[id]; }
  Count& support(NodeId id) { return supports_[id]; }

  /// Edge label from the parent (rank gap); 0 for the root.
  Pos position(NodeId id) const {
    return id == kRoot ? 0 : nodes_[id].rank - nodes_[nodes_[id].parent].rank;
  }

  /// Nodes of rank `j` in preorder (Lemma 4.1.1's sum-j bucket).
  std::span<const NodeId> bucket(Rank j) const {
    return {bucket_nodes_.data() + bucket_start_[j - 1],
            bucket_start_[j] - bucket_start_[j - 1]};
  }

  /// Calls fn(position) for every edge from `id` up to the root: the
  /// path's positions last to first, read off parent links.
  template <typename Fn>
  void climb(NodeId id, Fn&& fn) const {
    while (id != kRoot) {
      const Node& n = nodes_[id];
      fn(static_cast<Pos>(n.rank - nodes_[n.parent].rank));
      id = n.parent;
    }
  }

  /// Children of `id` in position order (a scan of its preorder subtree).
  std::vector<NodeId> children(NodeId id) const;

  /// Rows whose rank list is exactly this path: support minus the
  /// children's supports.
  Count end_freq(NodeId id) const;

  /// Child of `id` along edge `position`, or kRoot if absent.
  NodeId child(NodeId id, Pos position) const;

  /// Follows a position vector from the root; returns kRoot if the path is
  /// not present in the tree.
  NodeId find(std::span<const Pos> v) const;

  /// The position vector of the path from the root to `id`.
  PosVec path(NodeId id) const;

  /// Preorder traversal; fn(NodeId, depth).
  template <typename Fn>
  void walk(Fn&& fn) const {
    std::vector<std::size_t> depth(nodes_.size(), 0);
    for (NodeId id = 1; id < nodes_.size(); ++id) {
      depth[id] = depth[nodes_[id].parent] + 1;
      fn(id, depth[id]);
    }
  }

  /// ASCII rendering in the style of Figure 3(b): one node per line,
  /// "pos (rank r) freq=f" (end frequency), indented by depth.
  std::string to_string() const;

  std::size_t memory_usage() const;

 private:
  /// The tree of `rows` rows (RowAt(i) -> span<const Rank>, WeightAt(i) ->
  /// Count), built once: it keeps no build scratch.
  template <typename RowAt, typename WeightAt>
  static TreeView build_once(Rank max_rank, std::size_t rows, RowAt&& row_at,
                             WeightAt&& weight_at);
  /// Fills order_ with the non-empty row ids in an order assemble() takes
  /// (their given order when it qualifies, else distribute()'s; sets
  /// `distributed` to which) and returns the number of nodes they make,
  /// root included.
  template <typename RowAt>
  std::size_t order_rows(std::size_t rows, RowAt&& row_at, bool& distributed);
  /// The number of nodes the rows in order_ make, root included, or 0 when
  /// assemble() cannot take them in that order.
  template <typename RowAt>
  std::size_t count_nodes(RowAt&& row_at);
  /// Puts order_ in lexicographic order by MSD radix distribution over
  /// rank positions and returns the number of nodes, root included.
  template <typename RowAt>
  std::size_t distribute(RowAt&& row_at);
  /// Insertion-sorts order_[begin, end), whose rows share their first
  /// `depth` ranks, and returns the nodes below depth they make.
  template <typename RowAt>
  std::size_t finish_small(std::uint32_t begin, std::uint32_t end,
                           std::uint32_t depth, RowAt&& row_at);
  /// Builds the `count` preorder nodes of the rows in order_, then the
  /// per-rank index.
  template <typename RowAt, typename WeightAt>
  void assemble(std::size_t count, RowAt&& row_at, WeightAt&& weight_at);
  void index_buckets();

  Rank max_rank_;
  std::vector<Node> nodes_{1};  // node 0 is the root
  std::vector<Count> supports_{0};
  /// bucket_nodes_[bucket_start_[j-1] .. bucket_start_[j]) = rank-j nodes.
  std::vector<std::uint32_t> bucket_start_;
  std::vector<NodeId> bucket_nodes_;
  // Build scratch, kept across rebuild() calls.
  std::vector<std::uint32_t> order_;  ///< non-empty row ids, assemble() order
  std::vector<NodeId> path_;  ///< path_[d] = node at depth d+1 of the last row
  std::vector<Rank> last_child_;  ///< see count_nodes()
  /// A range of order_ whose rows share their first `depth` ranks.
  struct Task {
    std::uint32_t begin, end, depth;
  };
  /// distribute()'s scratch.
  struct Radix {
    std::vector<Rank> digits;  ///< digits[k] = rank at depth of order_[k]
    std::vector<std::uint32_t> spill;  ///< scatter target
    std::vector<std::uint32_t> tally;  ///< per rank, all zero between tasks
    std::vector<Rank> seen;            ///< the distinct ranks of a task
    std::vector<Task> tasks;
    std::size_t memory_usage() const;
  } radix_;
};

}  // namespace plt::core
