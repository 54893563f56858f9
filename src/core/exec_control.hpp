// Cooperative execution control for long-running mines: a shared
// cancellation token plus an optional wall-clock deadline and an
// approximate memory budget, checked by every algorithm path at projection
// boundaries (per rank, per level, per partition task). A tripped control
// latches the first terminal status; the mine unwinds cleanly and returns
// whatever itemsets were already emitted, with MineResult::status saying
// why it stopped.
//
// The handle is a shared_ptr over atomic state: copy it freely across
// threads, cancel from any of them. should_stop() is a handful of relaxed
// atomic operations (plus one steady_clock read when a deadline is set), so
// checking once per projection keeps overhead well under the 2% target.
// The control is the one count of its checks (checks()); no mining result
// copies it. Injected faults are counted by the failpoint registry.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

namespace plt::core {

enum class MineStatus {
  kCompleted,         ///< ran to the end; results are exhaustive
  kCancelled,         ///< token cancelled; results are a prefix
  kDeadlineExceeded,  ///< wall-clock deadline passed mid-mine
  kBudgetExceeded     ///< approximate memory use crossed the budget
};

const char* to_string(MineStatus status);

class MiningControl {
 public:
  /// A fresh, unlimited control (never trips until configured).
  MiningControl();

  /// Convenience: a control whose deadline is `budget` from now.
  static MiningControl with_deadline(std::chrono::nanoseconds budget);

  /// Requests cooperative cancellation; thread-safe, idempotent.
  void request_cancel();
  bool cancel_requested() const;

  /// Trips the control `budget` from now (steady clock).
  void set_deadline_after(std::chrono::nanoseconds budget);

  /// Trips the control when a checker reports more than `bytes` in use.
  /// 0 = unlimited.
  void set_memory_budget(std::size_t bytes);
  std::size_t memory_budget() const;

  /// True when any limit is configured (miners may skip checks otherwise).
  bool limited() const;

  /// The cooperative check: records the evaluation, trips on
  /// cancellation/deadline/budget and latches the first failure. Returns
  /// true when mining must stop. `approx_bytes` is the caller's estimate of
  /// current memory in use (pass 0 when unknown; the budget then only trips
  /// on callers that do report).
  bool should_stop(std::size_t approx_bytes = 0) const;

  /// kCompleted until a check trips; afterwards the latched terminal
  /// status. Latching is sticky: later checks return the first cause.
  MineStatus status() const;

  /// should_stop() evaluations so far (across all copies of the handle).
  std::uint64_t checks() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace plt::core
