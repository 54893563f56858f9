// Recording + aggregation for the tracing layer. Per-thread recording is
// lock-free (each thread mutates only its own ThreadTrace); the only lock
// is the session collector's registration mutex, taken once per thread
// binding. Aggregation happens after the traced work quiesced (the mine
// paths join their workers first), so reading the thread trees needs no
// synchronization beyond the joins' happens-before.
#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "util/thread_annotations.hpp"

namespace plt::obs {

namespace {

// Node of a per-thread aggregation tree. Names are the caller's static
// strings; child/counter lookup compares pointers first (same literal,
// same TU) and falls back to strcmp, so distinct literals with equal text
// still merge.
struct Node {
  const char* name;
  Node* parent;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::vector<std::pair<const char*, std::uint64_t>> counters;
  std::vector<std::unique_ptr<Node>> children;

  Node(const char* n, Node* p) : name(n), parent(p) {}

  Node* child(const char* child_name) {
    for (auto& c : children)
      if (c->name == child_name || std::strcmp(c->name, child_name) == 0)
        return c.get();
    children.push_back(std::make_unique<Node>(child_name, this));
    return children.back().get();
  }

  void add(const char* counter_name, std::uint64_t delta) {
    for (auto& [name_, value] : counters)
      if (name_ == counter_name || std::strcmp(name_, counter_name) == 0) {
        value += delta;
        return;
      }
    counters.emplace_back(counter_name, delta);
  }
};

}  // namespace

/// One thread's recording state: the aggregation tree rooted at a
/// synthetic node, the open-span cursor, and the session it belongs to.
class ThreadTrace {
 public:
  explicit ThreadTrace(Collector& collector)
      : collector_(collector), root_("trace", nullptr), current_(&root_) {}

  Collector& collector() const { return collector_; }

  void enter(const char* name) {
    current_ = current_->child(name);
    ++current_->count;
  }

  void exit(std::uint64_t elapsed_ns) {
    if (current_ == &root_) {
      ++unbalanced_exits_;
      return;
    }
    current_->total_ns += elapsed_ns;
    current_ = current_->parent;
  }

  void add(const char* name, std::uint64_t delta) {
    current_->add(name, delta);
  }

  const Node& root() const { return root_; }
  std::uint64_t unbalanced_exits() const { return unbalanced_exits_; }
  std::uint64_t open_spans() const {
    std::uint64_t depth = 0;
    for (const Node* n = current_; n != &root_; n = n->parent) ++depth;
    return depth;
  }

 private:
  Collector& collector_;
  Node root_;
  Node* current_;
  std::uint64_t unbalanced_exits_ = 0;
};

/// One session's registry: owns a ThreadTrace for every thread binding.
/// Shared by the session and each bound thread, so it lives as long as the
/// last of them.
class Collector : public std::enable_shared_from_this<Collector> {
 public:
  ThreadTrace* register_thread() {
    const MutexLock lock(mutex_);
    threads_.push_back(std::make_unique<ThreadTrace>(*this));
    return threads_.back().get();
  }

  template <typename Fn>
  void for_each_thread(Fn&& fn) const {
    const MutexLock lock(mutex_);
    for (const auto& t : threads_) fn(*t);
  }

 private:
  mutable Mutex mutex_;
  // The registry itself is guarded; the ThreadTraces it owns are not —
  // each is mutated only by its owning thread, and aggregation reads them
  // after the workers joined (see the file comment).
  std::vector<std::unique_ptr<ThreadTrace>> threads_ PLT_GUARDED_BY(mutex_);
};

namespace detail {

constinit thread_local ThreadTrace* t_trace = nullptr;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void span_enter(ThreadTrace* t, const char* name) { t->enter(name); }
void span_exit(ThreadTrace* t, std::uint64_t elapsed_ns) {
  t->exit(elapsed_ns);
}
void add_counter(ThreadTrace* t, const char* name, std::uint64_t delta) {
  t->add(name, delta);
}

}  // namespace detail

// ---- TraceNode queries ----

const TraceNode* TraceNode::child(std::string_view child_name) const {
  for (const TraceNode& c : children)
    if (c.name == child_name) return &c;
  return nullptr;
}

const TraceNode* TraceNode::descendant(std::string_view path) const {
  const TraceNode* node = this;
  while (node != nullptr && !path.empty()) {
    const auto slash = path.find('/');
    const std::string_view head = path.substr(0, slash);
    node = node->child(head);
    path = slash == std::string_view::npos ? std::string_view{}
                                           : path.substr(slash + 1);
  }
  return node;
}

std::uint64_t TraceNode::counter(std::string_view counter_name) const {
  for (const auto& [name_, value] : counters)
    if (name_ == counter_name) return value;
  return 0;
}

std::uint64_t TraceNode::counter_total(std::string_view counter_name) const {
  std::uint64_t total = counter(counter_name);
  for (const TraceNode& c : children) total += c.counter_total(counter_name);
  return total;
}

std::uint64_t TraceNode::span_total() const {
  std::uint64_t total = count;
  for (const TraceNode& c : children) total += c.span_total();
  return total;
}

// ---- aggregation ----

namespace {

// Folds one per-thread node into the merged tree (recursive: matching
// names merge, new names append; ordering is fixed afterwards).
void merge_node(TraceNode& into, const Node& from) {
  into.count += from.count;
  into.total_ns += from.total_ns;
  for (const auto& [name, value] : from.counters) {
    bool found = false;
    for (auto& [mname, mvalue] : into.counters)
      if (mname == name) {
        mvalue += value;
        found = true;
        break;
      }
    if (!found) into.counters.emplace_back(name, value);
  }
  for (const auto& child : from.children) {
    TraceNode* slot = nullptr;
    for (TraceNode& c : into.children)
      if (c.name == child->name) {
        slot = &c;
        break;
      }
    if (slot == nullptr) {
      into.children.emplace_back();
      slot = &into.children.back();
      slot->name = child->name;
    }
    merge_node(*slot, *child);
  }
}

void sort_tree(TraceNode& node) {
  std::sort(node.counters.begin(), node.counters.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(node.children.begin(), node.children.end(),
            [](const TraceNode& a, const TraceNode& b) {
              return a.name < b.name;
            });
  for (TraceNode& c : node.children) sort_tree(c);
}

}  // namespace

// ---- binding ----

TraceBinding TraceBinding::current() {
  ThreadTrace* t = detail::t_trace;
  if (t == nullptr) return {};
  return TraceBinding(t->collector().shared_from_this());
}

TraceBinding::Scope::Scope(TraceBinding binding)
    : bound_(std::move(binding)), previous_(detail::t_trace) {
  detail::t_trace = bound_.collector_ != nullptr
                        ? bound_.collector_->register_thread()
                        : nullptr;
}

TraceBinding::Scope::~Scope() { detail::t_trace = previous_; }

// ---- session ----

TraceSession::TraceSession()
    : collector_(std::make_shared<Collector>()) {
  bound_.emplace(TraceBinding(collector_));
}

std::shared_ptr<const TraceNode> TraceSession::finish() {
  if (tree_ == nullptr) {
    bound_.reset();
    TraceNode root;
    root.name = "trace";
    collector_->for_each_thread(
        [&](const ThreadTrace& t) { merge_node(root, t.root()); });
    sort_tree(root);
    tree_ = std::make_shared<const TraceNode>(std::move(root));
  }
  return tree_;
}

TraceHealth TraceSession::health() const {
  TraceHealth h;
  collector_->for_each_thread([&](const ThreadTrace& t) {
    ++h.threads;
    h.unbalanced_exits += t.unbalanced_exits();
    h.open_spans += t.open_spans();
  });
  return h;
}

}  // namespace plt::obs
