#include "core/tree_view.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "core/validate.hpp"

namespace plt::core {

namespace {

std::size_t common_prefix(std::span<const Rank> a, std::span<const Rank> b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

bool lexicographic_less(std::span<const Rank> a, std::span<const Rank> b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

TreeView::TreeView(Rank max_rank) : max_rank_(max_rank) {
  bucket_start_.assign(static_cast<std::size_t>(max_rank_) + 1, 0);
}

template <typename RowAt>
std::size_t TreeView::count_nodes(RowAt&& row_at) {
  // Each row adds the ranks past its common prefix with the row before
  // it. That builds the preorder tree when every node's children are
  // first reached in ascending rank, which last_child_ (per depth of the
  // current path, the rank of the last child reached) checks: a row may
  // come before or after its own extensions, but no rank may go back.
  std::size_t count = 1;
  std::span<const Rank> prev;
  last_child_.assign(1, 0);
  for (const std::uint32_t i : order_) {
    const std::span<const Rank> row = row_at(i);
    const std::size_t shared = common_prefix(prev, row);
    last_child_.resize(shared + 1);
    if (shared < row.size()) {
      if (row[shared] <= last_child_[shared]) return 0;
      last_child_[shared] = row[shared];
      const std::span<const Rank> below = row.subspan(shared + 1);
      last_child_.insert(last_child_.end(), below.begin(), below.end());
      last_child_.push_back(0);
      count += row.size() - shared;
    }
    prev = row;
  }
  return count;
}

template <typename RowAt>
std::size_t TreeView::order_rows(std::size_t rows, RowAt&& row_at) {
  // Rows read off a tree's rank bucket (a conditional database) mostly
  // come in an order assemble() takes as it is; the rest are sorted.
  order_.clear();
  for (std::size_t i = 0; i < rows; ++i)
    if (!row_at(static_cast<std::uint32_t>(i)).empty())
      order_.push_back(static_cast<std::uint32_t>(i));
  if (const std::size_t count = count_nodes(row_at); count != 0) return count;

  // Each row's leading ranks are packed into one 64-bit key, as many as fit
  // at bit_width(max_rank) bits each, with 0 (below every rank) past the
  // row's end so a row sorts before its extensions. Most comparisons then
  // read a contiguous array instead of the rows, and only rows sharing
  // every packed rank compare their remainders.
  const unsigned bits =
      std::max(1u, static_cast<unsigned>(std::bit_width(max_rank_)));
  const std::size_t packed = 64 / bits;
  keys_.clear();
  for (const std::uint32_t i : order_) {
    const std::span<const Rank> row = row_at(i);
    std::uint64_t key = 0;
    for (std::size_t k = 0; k < packed; ++k)
      key = (key << bits) | (k < row.size() ? row[k] : 0);
    keys_.push_back({key, i});
  }
  std::sort(keys_.begin(), keys_.end(),
            [&](const SortKey& a, const SortKey& b) {
              if (a.key != b.key) return a.key < b.key;
              const std::span<const Rank> x = row_at(a.row),
                                          y = row_at(b.row);
              return lexicographic_less(x.subspan(std::min(packed, x.size())),
                                        y.subspan(std::min(packed, y.size())));
            });
  for (std::size_t i = 0; i < keys_.size(); ++i) order_[i] = keys_[i].row;
  return count_nodes(row_at);
}

template <typename RowAt, typename WeightAt>
void TreeView::assemble(std::size_t count, RowAt&& row_at,
                        WeightAt&& weight_at) {
  PLT_ASSERT(ids_fit(count), "tree node count exceeds 32-bit node ids");
  nodes_.assign(1, Node{});
  supports_.assign(1, 0);
  nodes_.reserve(count);
  supports_.reserve(count);

  // Each row's weight lands on its last node; a reverse preorder pass then
  // adds every node's support into its parent's.
  std::span<const Rank> prev;
  path_.clear();
  for (const std::uint32_t i : order_) {
    const std::span<const Rank> row = row_at(i);
    const std::size_t shared = common_prefix(prev, row);
    path_.resize(shared);
    for (std::size_t d = shared; d < row.size(); ++d) {
      const NodeId parent = d == 0 ? kRoot : path_.back();
      PLT_ASSERT(row[d] > nodes_[parent].rank && row[d] <= max_rank_,
                 "tree rows must be strictly increasing ranks <= max_rank");
      nodes_.push_back({parent, row[d]});
      supports_.push_back(0);
      path_.push_back(static_cast<NodeId>(nodes_.size() - 1));
    }
    supports_[path_.back()] += weight_at(i);
    prev = row;
  }
  for (std::size_t id = nodes_.size() - 1; id >= 1; --id)
    supports_[nodes_[id].parent] += supports_[id];
  index_buckets();
}

void TreeView::index_buckets() {
  // Counting sort of node ids by rank: bucket_start_[j-1] first counts the
  // rank-j nodes, then the prefix sum makes it bucket j's end, and filling
  // ids from the last down moves it to bucket j's start. Every bucket so
  // lists its nodes in preorder.
  bucket_start_.assign(static_cast<std::size_t>(max_rank_) + 1, 0);
  for (std::size_t id = 1; id < nodes_.size(); ++id)
    ++bucket_start_[nodes_[id].rank - 1];
  for (Rank j = 1; j < max_rank_; ++j)
    bucket_start_[j] += bucket_start_[j - 1];
  bucket_nodes_.resize(nodes_.size() - 1);
  for (std::size_t id = nodes_.size() - 1; id >= 1; --id)
    bucket_nodes_[--bucket_start_[nodes_[id].rank - 1]] =
        static_cast<NodeId>(id);
  bucket_start_[max_rank_] = static_cast<std::uint32_t>(nodes_.size() - 1);
}

template <typename RowAt, typename WeightAt>
TreeView TreeView::build_once(Rank max_rank, std::size_t rows, RowAt&& row_at,
                              WeightAt&& weight_at) {
  PLT_ASSERT(ids_fit(rows), "row ids exceed 32 bits");
  TreeView tree(max_rank);
  const std::size_t count = tree.order_rows(rows, row_at);
  // The sort keys go before the nodes are allocated, so the two never
  // share the build's peak; a tree built once keeps no scratch.
  std::vector<SortKey>().swap(tree.keys_);
  tree.assemble(count, row_at, weight_at);
  std::vector<std::uint32_t>().swap(tree.order_);
  std::vector<NodeId>().swap(tree.path_);
  std::vector<Rank>().swap(tree.last_child_);
  return tree;
}

TreeView TreeView::from_ranked_rows(const tdb::Database& ranked_db,
                                    Rank max_rank) {
  return build_once(
      max_rank, ranked_db.size(),
      [&](std::uint32_t t) { return ranked_db[t]; },
      [](std::uint32_t) { return Count{1}; });
}

void TreeView::Rows::add(std::span<const Pos> v, Count weight) {
  if (weight == 0) return;
  Rank acc = 0;
  for (const Pos p : v) ranks.push_back(acc += p);
  start.push_back(ranks.size());
  weights.push_back(weight);
}

namespace {

/// Row i of `rows` as a rank list.
auto rows_at(const TreeView::Rows& rows) {
  return [&rows](std::uint32_t i) {
    return std::span<const Rank>(rows.ranks.data() + rows.start[i],
                                 rows.start[i + 1] - rows.start[i]);
  };
}

}  // namespace

TreeView TreeView::from_rows(const Rows& rows, Rank max_rank,
                             const char* context) {
  // Ordering positions and ranks lexicographically agree, so rows sort by
  // their rank lists alone.
  TreeView tree = build_once(
      max_rank, rows.size(), rows_at(rows),
      [&](std::uint32_t i) { return rows.weights[i]; });
  maybe_validate(tree, context);
  return tree;
}

void TreeView::rebuild(const Rows& rows, Rank max_rank, const char* context) {
  PLT_ASSERT(ids_fit(rows.size()), "row ids exceed 32 bits");
  max_rank_ = max_rank;
  const auto row = rows_at(rows);
  assemble(order_rows(rows.size(), row), row,
           [&](std::uint32_t i) { return rows.weights[i]; });
  maybe_validate(*this, context);
}

TreeView TreeView::from_plt(const Plt& plt) {
  Rows rows;
  plt.for_each([&](Plt::Ref, std::span<const Pos> v,
                   const Partition::Entry& e) { rows.add(v, e.freq); });
  return from_rows(rows, plt.max_rank(), "TreeView::from_plt");
}

TreeView TreeView::full_lexicographic(Rank max_rank) {
  PLT_ASSERT(max_rank >= 1 && max_rank <= 16,
             "full lexicographic tree guarded to max_rank <= 16");
  TreeView tree(max_rank);
  // Preorder DFS over every non-empty subset: the children of a node at
  // rank r are the ranks r+1..max_rank, i.e. positions 1..max_rank-r.
  struct Frame {
    NodeId id;
    Rank next;
  };
  std::vector<Frame> stack{{kRoot, 1}};
  while (!stack.empty()) {
    const Frame top = stack.back();
    if (top.next > max_rank) {
      stack.pop_back();
      continue;
    }
    ++stack.back().next;
    tree.nodes_.push_back({top.id, top.next});
    tree.supports_.push_back(0);
    stack.push_back(
        {static_cast<NodeId>(tree.nodes_.size() - 1), top.next + 1});
  }
  tree.index_buckets();
  return tree;
}

Plt TreeView::to_plt(Rank max_rank) const {
  Plt plt(max_rank);
  walk([&](NodeId id, std::size_t) {
    const Count freq = end_freq(id);
    if (freq > 0) plt.add(path(id), freq);
  });
  return plt;
}

std::vector<TreeView::NodeId> TreeView::children(NodeId id) const {
  // In preorder, id's subtree is the run of nodes after it whose parents
  // are id or later; its children are the ones whose parent is id.
  std::vector<NodeId> out;
  for (std::size_t i = std::size_t{id} + 1;
       i < nodes_.size() && nodes_[i].parent >= id; ++i)
    if (nodes_[i].parent == id) out.push_back(static_cast<NodeId>(i));
  return out;
}

Count TreeView::end_freq(NodeId id) const {
  Count freq = supports_[id];
  for (const NodeId c : children(id)) freq -= supports_[c];
  return freq;
}

TreeView::NodeId TreeView::child(NodeId id, Pos position) const {
  const Rank rank = nodes_[id].rank;
  if (position == 0 || position > max_rank_ - rank) return kRoot;
  for (const NodeId n : bucket(rank + position))
    if (nodes_[n].parent == id) return n;
  return kRoot;
}

TreeView::NodeId TreeView::find(std::span<const Pos> v) const {
  NodeId node = kRoot;
  for (const Pos p : v) {
    node = child(node, p);
    if (node == kRoot) return kRoot;
  }
  return node;
}

PosVec TreeView::path(NodeId id) const {
  PosVec v;
  climb(id, [&](Pos p) { v.push_back(p); });
  std::reverse(v.begin(), v.end());
  return v;
}

std::string TreeView::to_string() const {
  std::ostringstream out;
  out << "(root)\n";
  walk([&](NodeId id, std::size_t depth) {
    out << std::string(depth * 2, ' ') << position(id) << " (rank "
        << nodes_[id].rank << ')';
    if (const Count freq = end_freq(id); freq > 0) out << " freq=" << freq;
    out << '\n';
  });
  return out.str();
}

std::size_t TreeView::memory_usage() const {
  return nodes_.capacity() * sizeof(Node) +
         supports_.capacity() * sizeof(Count) +
         bucket_start_.capacity() * sizeof(std::uint32_t) +
         bucket_nodes_.capacity() * sizeof(NodeId) +
         keys_.capacity() * sizeof(SortKey) +
         order_.capacity() * sizeof(std::uint32_t) +
         path_.capacity() * sizeof(NodeId) +
         last_child_.capacity() * sizeof(Rank);
}

}  // namespace plt::core
