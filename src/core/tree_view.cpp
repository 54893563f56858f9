#include "core/tree_view.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/validate.hpp"

namespace plt::core {

namespace {

/// The length of a's and b's common prefix; their first `from` ranks are
/// known equal.
std::size_t common_prefix(std::span<const Rank> a, std::span<const Rank> b,
                          std::size_t from = 0) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = from;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// Ranges of at most this many rows finish with an insertion sort.
constexpr std::uint32_t kSmallRange = 32;

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
std::size_t TreeView::order_rows(std::size_t rows, RowAt&& row_at,
                                  bool& distributed) {
  // Rows read off a tree's rank bucket (a conditional database) often
  // come in an order assemble() takes as it is; the rest are distributed.
  order_.clear();
  for (std::size_t i = 0; i < rows; ++i)
    if (!row_at(static_cast<std::uint32_t>(i)).empty())
      order_.push_back(static_cast<std::uint32_t>(i));
  const std::size_t count = count_nodes(row_at);
  distributed = count == 0;
  return distributed ? distribute(row_at) : count;
}

template <typename RowAt>
std::size_t TreeView::distribute(RowAt&& row_at) {
  // Algorithm 1's distribution, one rank position at a time. A task is a
  // range of order_ whose rows share their first `depth` ranks: the path
  // to one node, counted already. Its rows are counting-sorted by their
  // rank at depth, 0 standing for a row that ends there so it goes first;
  // tally is indexed by rank but only the distinct ranks seen are touched.
  // Each distinct rank is one child node, and its run is the child's task.
  Radix& r = radix_;
  if (r.tally.size() <= max_rank_) r.tally.resize(max_rank_ + std::size_t{1});
  r.digits.resize(order_.size());
  r.spill.resize(order_.size());
  r.tasks.assign(1, {0, static_cast<std::uint32_t>(order_.size()), 0});
  std::size_t count = 1;
  while (!r.tasks.empty()) {
    const Task task = r.tasks.back();
    r.tasks.pop_back();
    if (task.end - task.begin <= kSmallRange) {
      count += finish_small(task.begin, task.end, task.depth, row_at);
      continue;
    }
    r.seen.clear();
    for (std::uint32_t k = task.begin; k < task.end; ++k) {
      const std::span<const Rank> row = row_at(order_[k]);
      const Rank digit = task.depth < row.size() ? row[task.depth] : 0;
      PLT_ASSERT(digit <= max_rank_, "tree rows must be ranks <= max_rank");
      r.digits[k] = digit;
      if (r.tally[digit]++ == 0) r.seen.push_back(digit);
    }
    std::sort(r.seen.begin(), r.seen.end());
    if (r.seen.size() > 1) {
      // tally becomes each rank's run start, then its end as rows land.
      std::uint32_t at = task.begin;
      for (const Rank digit : r.seen) at += std::exchange(r.tally[digit], at);
      for (std::uint32_t k = task.begin; k < task.end; ++k)
        r.spill[r.tally[r.digits[k]]++] = order_[k];
      std::copy(r.spill.begin() + task.begin, r.spill.begin() + task.end,
                order_.begin() + task.begin);
    } else {
      r.tally[r.seen[0]] = task.end;
    }
    std::uint32_t begin = task.begin;
    for (const Rank digit : r.seen) {
      const std::uint32_t end = std::exchange(r.tally[digit], 0);
      if (digit != 0) {
        ++count;
        if (end - begin == 1)  // a lone row: the rest of it is one path
          count += row_at(order_[begin]).size() - (task.depth + 1);
        else
          r.tasks.push_back({begin, end, task.depth + 1});
      }
      begin = end;
    }
  }
  return count;
}

template <typename RowAt>
std::size_t TreeView::finish_small(std::uint32_t begin, std::uint32_t end,
                                   std::uint32_t depth, RowAt&& row_at) {
  // Rows compare from depth on; a row sorts before its extensions.
  const auto less = [&](std::uint32_t a, std::uint32_t b) {
    const std::span<const Rank> x = row_at(a), y = row_at(b);
    return std::lexicographical_compare(x.begin() + depth, x.end(),
                                        y.begin() + depth, y.end());
  };
  for (std::uint32_t k = begin + 1; k < end; ++k) {
    const std::uint32_t row = order_[k];
    std::uint32_t at = k;
    for (; at > begin && less(row, order_[at - 1]); --at)
      order_[at] = order_[at - 1];
    order_[at] = row;
  }
  // Each row then adds the ranks past its common prefix with the row
  // before it; the first shares only the range's `depth` ranks.
  std::size_t count = 0;
  std::span<const Rank> prev = row_at(order_[begin]).first(depth);
  for (std::uint32_t k = begin; k < end; ++k) {
    const std::span<const Rank> row = row_at(order_[k]);
    count += row.size() - common_prefix(prev, row, depth);
    prev = row;
  }
  return count;
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
  PLT_ASSERT(nodes_.size() == count, "tree builder miscounted its nodes");
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
  bool distributed = false;
  const std::size_t count = tree.order_rows(rows, row_at, distributed);
  // The radix scratch goes before the nodes are allocated, so the two
  // never share the build's peak; a tree built once keeps no scratch.
  tree.radix_ = {};
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

bool TreeView::rebuild(const Rows& rows, Rank max_rank, const char* context) {
  PLT_ASSERT(ids_fit(rows.size()), "row ids exceed 32 bits");
  max_rank_ = max_rank;
  const auto row = rows_at(rows);
  bool distributed = false;
  const std::size_t count = order_rows(rows.size(), row, distributed);
  assemble(count, row, [&](std::uint32_t i) { return rows.weights[i]; });
  maybe_validate(*this, context);
  return distributed;
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
         order_.capacity() * sizeof(std::uint32_t) +
         path_.capacity() * sizeof(NodeId) +
         last_child_.capacity() * sizeof(Rank) + radix_.memory_usage();
}

std::size_t TreeView::Radix::memory_usage() const {
  return digits.capacity() * sizeof(Rank) +
         spill.capacity() * sizeof(std::uint32_t) +
         tally.capacity() * sizeof(std::uint32_t) +
         seen.capacity() * sizeof(Rank) + tasks.capacity() * sizeof(Task);
}

}  // namespace plt::core
