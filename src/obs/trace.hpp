// Observability layer (S23): low-overhead structured tracing and phase
// metrics for every mining path. The design splits recording from
// reporting:
//
//   * Recording is per-thread and lock-free: each thread bound to a session
//     owns a ThreadTrace, an aggregation tree of (name, count, ns,
//     counters) nodes. Span enter/exit touches only thread-local state, so
//     tracing a work-stealing mine needs no synchronization on the hot
//     path.
//   * Reporting merges the per-thread trees into one deterministic
//     TraceNode tree: children and counters sorted by name, counts and
//     durations summed. Because every unit of work is traced exactly once
//     no matter which thread ran it, the merged tree is byte-identical
//     across thread counts once durations are masked — the golden-trace
//     tests pin exactly that.
//
// Cost contract:
//   * compile-time off (-DPLT_OBS=OFF): every macro/inline expands to
//     nothing; the library carries no tracing code at all.
//   * on a thread bound to no session: one thread-local read per
//     span/counter site.
//   * on a bound thread: two steady_clock reads per span plus a short
//     linear child/counter scan; the traced overhead is recorded in E19.
//
// Determinism rules (golden traces rely on these — see DESIGN.md S23):
//   1. Span and counter names are stable literals; no ids, addresses,
//      sizes or thread counts may leak into a name.
//   2. Only thread-count-invariant quantities are recorded (e.g. the
//      work-stealing miner's steal count stays in ProjectionStats, not
//      here).
//   3. Masked export (TraceExportOptions::mask_durations) omits every
//      nanosecond field and the backend tag, leaving names, nesting and
//      counts only.
//
// Activation: a TraceSession is the only way to record, and it records only
// the threads bound to it: the one that opened it (sessions nest; the
// innermost records) and the threads started for that thread's work, which
// bind its TraceBinding (core/thread_context.hpp). Callers on different
// threads trace separately. plt-mine --trace=FILE and every bench binary's
// --trace flag open one session around the whole run (harness::TraceScope);
// tests and perfbench open one around the calls they measure.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#ifndef PLT_OBS_ENABLED
#define PLT_OBS_ENABLED 1
#endif

namespace plt::obs {

/// One node of the merged, deterministic span tree. Children and counters
/// are sorted by name; counts/durations are summed over every thread that
/// recorded the same span path.
struct TraceNode {
  std::string name;
  std::uint64_t count = 0;     ///< times a span with this path was opened
  std::uint64_t total_ns = 0;  ///< wall time summed over those spans
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<TraceNode> children;

  /// Direct child by name, or nullptr.
  const TraceNode* child(std::string_view child_name) const;
  /// Descendant by path from this node, or nullptr ("a/b/c").
  const TraceNode* descendant(std::string_view path) const;
  /// Counter value on this node (0 when absent).
  std::uint64_t counter(std::string_view counter_name) const;
  /// Recursive sum of one counter over this node and all descendants.
  std::uint64_t counter_total(std::string_view counter_name) const;
  /// Total spans in this subtree (sum of count over every node).
  std::uint64_t span_total() const;
};

/// Aggregate well-formedness report, for tests and trace consumers: a
/// healthy trace has no unbalanced exits and no spans still open at
/// aggregation time.
struct TraceHealth {
  std::uint64_t threads = 0;           ///< threads bound to the session
  std::uint64_t unbalanced_exits = 0;  ///< span exits without an enter
  std::uint64_t open_spans = 0;        ///< spans still open when aggregated
};

class ThreadTrace;  // opaque per-thread recorder (trace.cpp)
class Collector;    // opaque registry of one session's recorders (trace.cpp)

namespace detail {
// The calling thread's recorder in the session it is bound to; null when
// it is bound to none. constinit lets every site read it directly.
extern constinit thread_local ThreadTrace* t_trace;
std::uint64_t now_ns();
void span_enter(ThreadTrace* t, const char* name);
void span_exit(ThreadTrace* t, std::uint64_t elapsed_ns);
void add_counter(ThreadTrace* t, const char* name, std::uint64_t delta);
}  // namespace detail

/// The calling thread's recorder, or null when the thread is bound to no
/// session. One thread-local read.
inline ThreadTrace* current_thread_trace() {
#if PLT_OBS_ENABLED
  return detail::t_trace;
#else
  return nullptr;
#endif
}

/// The session a thread records into, as a copyable value (empty for
/// none): current() on the traced thread, a Scope on each thread started
/// for its work. Bound threads share ownership of the session's collector,
/// so one that outlives the session records into live memory nobody reads.
class TraceBinding {
 public:
  TraceBinding() = default;
  static TraceBinding current();

  class Scope;

 private:
  friend class TraceSession;
  explicit TraceBinding(std::shared_ptr<Collector> collector)
      : collector_(std::move(collector)) {}

  std::shared_ptr<Collector> collector_;
};

/// Binds the calling thread until the scope ends, then restores the
/// thread's previous recorder. Scopes nest last in first out on a thread.
class TraceBinding::Scope {
 public:
  explicit Scope(TraceBinding binding);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TraceBinding bound_;  ///< keeps the bound collector alive
  ThreadTrace* previous_ = nullptr;
};

/// RAII phase span. Records nothing (one thread-local read) on a thread
/// bound to no session. `name` must outlive the session — use string
/// literals or other static storage (algorithm_name() etc.).
class Span {
 public:
  explicit Span(const char* name) {
#if PLT_OBS_ENABLED
    t_ = current_thread_trace();
    if (t_ != nullptr) {
      detail::span_enter(t_, name);
      start_ = detail::now_ns();
    }
#else
    (void)name;
#endif
  }
  ~Span() {
#if PLT_OBS_ENABLED
    if (t_ != nullptr) detail::span_exit(t_, detail::now_ns() - start_);
#endif
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
#if PLT_OBS_ENABLED
  ThreadTrace* t_ = nullptr;
  std::uint64_t start_ = 0;
#endif
};

/// Adds `delta` to the named counter on the calling thread's innermost
/// open span (or its root when no span is open). Monotone by construction:
/// deltas are unsigned and never reset within a session.
inline void count(const char* name, std::uint64_t delta = 1) {
#if PLT_OBS_ENABLED
  if (ThreadTrace* t = current_thread_trace())
    detail::add_counter(t, name, delta);
#else
  (void)name;
  (void)delta;
#endif
}

/// Kernel-dispatch accounting: one call + `bytes` bytes through the named
/// kernel entry point ("kernel.intersect_sorted", ...). Counter names carry
/// no backend tag so traces stay byte-identical across scalar/SIMD
/// backends; the active backend is reported once, as export metadata.
inline void count_kernel(const char* calls_name, const char* bytes_name,
                         std::uint64_t bytes) {
#if PLT_OBS_ENABLED
  if (ThreadTrace* t = current_thread_trace()) {
    detail::add_counter(t, calls_name, 1);
    detail::add_counter(t, bytes_name, bytes);
  }
#else
  (void)calls_name;
  (void)bytes_name;
  (void)bytes;
#endif
}

/// Scoped trace session, the only way to record a trace. The constructor
/// binds the calling thread to a new collector; finish() (or the
/// destructor) restores the thread's previous binding. Threads started for
/// the traced work join the session through its TraceBinding. Sessions
/// nest last in first out on one thread, and the innermost records.
/// finish() is safe once the traced work has quiesced (worker threads
/// joined; the mining paths join before they return).
class TraceSession {
 public:
  TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Unbinds the calling thread and returns the deterministic merged tree
  /// of every thread bound to the session: root "trace", children sorted
  /// by name. Idempotent: later calls return the same tree.
  std::shared_ptr<const TraceNode> finish();
  /// Nesting report over every thread bound to this session.
  TraceHealth health() const;

 private:
  std::shared_ptr<Collector> collector_;
  std::optional<TraceBinding::Scope> bound_;  ///< empty after finish()
  std::shared_ptr<const TraceNode> tree_;     ///< set by finish()
};

// ---- export ----

struct TraceExportOptions {
  /// Golden mode: omit every nanosecond field, the backend tag and any
  /// other non-deterministic metadata; emit names, nesting, counts and
  /// counters only.
  bool mask_durations = false;
  /// Annotates the export with the active kernel backend (ignored when
  /// masked). Filled by callers from kernels::active().name.
  std::string backend;
};

/// Canonical JSON rendering of a span tree: stable field order, children
/// and counters pre-sorted by aggregate(), newline-terminated — masked
/// output is byte-stable and exactly comparable to a committed golden.
std::string to_json(const TraceNode& root, const TraceExportOptions& options = {});

/// Flamegraph-ready folded stacks ("trace;mine;build 1234"), one line per
/// node, value = self time in nanoseconds (span count when masked).
std::string to_folded(const TraceNode& root, bool mask_durations = false);

}  // namespace plt::obs

#if PLT_OBS_ENABLED
#define PLT_OBS_CONCAT_(a, b) a##b
#define PLT_OBS_CONCAT(a, b) PLT_OBS_CONCAT_(a, b)
/// Opens an RAII phase span for the rest of the enclosing scope.
#define PLT_SPAN(name) \
  ::plt::obs::Span PLT_OBS_CONCAT(plt_obs_span_, __LINE__)(name)
/// Adds to a named counter on the innermost open span of this thread.
#define PLT_TRACE_COUNT(name, delta) ::plt::obs::count((name), (delta))
#else
#define PLT_SPAN(name) \
  do {                 \
  } while (0)
#define PLT_TRACE_COUNT(name, delta) \
  do {                               \
  } while (0)
#endif
