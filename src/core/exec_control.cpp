#include "core/exec_control.hpp"

#include <atomic>

namespace plt::core {

const char* to_string(MineStatus status) {
  switch (status) {
    case MineStatus::kCompleted: return "completed";
    case MineStatus::kCancelled: return "cancelled";
    case MineStatus::kDeadlineExceeded: return "deadline-exceeded";
    case MineStatus::kBudgetExceeded: return "budget-exceeded";
  }
  return "?";
}

struct MiningControl::State {
  std::atomic<bool> cancel{false};
  /// Deadline as steady_clock nanoseconds-since-epoch; 0 = none.
  std::atomic<std::int64_t> deadline_ns{0};
  std::atomic<std::uint64_t> budget_bytes{0};  ///< 0 = none
  std::atomic<int> latched{0};  ///< MineStatus of the first trip, 0 = none
  std::atomic<std::uint64_t> checks{0};
};

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MiningControl::MiningControl() : state_(std::make_shared<State>()) {}

MiningControl MiningControl::with_deadline(std::chrono::nanoseconds budget) {
  MiningControl control;
  control.set_deadline_after(budget);
  return control;
}

void MiningControl::request_cancel() {
  state_->cancel.store(true, std::memory_order_relaxed);
}

bool MiningControl::cancel_requested() const {
  return state_->cancel.load(std::memory_order_relaxed);
}

void MiningControl::set_deadline_after(std::chrono::nanoseconds budget) {
  state_->deadline_ns.store(steady_now_ns() + budget.count(),
                            std::memory_order_relaxed);
}

void MiningControl::set_memory_budget(std::size_t bytes) {
  state_->budget_bytes.store(bytes, std::memory_order_relaxed);
}

std::size_t MiningControl::memory_budget() const {
  return static_cast<std::size_t>(
      state_->budget_bytes.load(std::memory_order_relaxed));
}

bool MiningControl::limited() const {
  const State& s = *state_;
  return s.cancel.load(std::memory_order_relaxed) ||
         s.deadline_ns.load(std::memory_order_relaxed) != 0 ||
         s.budget_bytes.load(std::memory_order_relaxed) != 0;
}

bool MiningControl::should_stop(std::size_t approx_bytes) const {
  State& s = *state_;
  s.checks.fetch_add(1, std::memory_order_relaxed);
  if (s.latched.load(std::memory_order_relaxed) != 0) return true;

  MineStatus verdict = MineStatus::kCompleted;
  if (s.cancel.load(std::memory_order_relaxed)) {
    verdict = MineStatus::kCancelled;
  } else if (const auto deadline =
                 s.deadline_ns.load(std::memory_order_relaxed);
             deadline != 0 && steady_now_ns() >= deadline) {
    verdict = MineStatus::kDeadlineExceeded;
  } else if (const auto budget =
                 s.budget_bytes.load(std::memory_order_relaxed);
             budget != 0 && approx_bytes > budget) {
    verdict = MineStatus::kBudgetExceeded;
  }
  if (verdict == MineStatus::kCompleted) return false;

  int expected = 0;
  s.latched.compare_exchange_strong(expected, static_cast<int>(verdict),
                                    std::memory_order_relaxed);
  return true;
}

MineStatus MiningControl::status() const {
  return static_cast<MineStatus>(
      state_->latched.load(std::memory_order_relaxed));
}

std::uint64_t MiningControl::checks() const {
  return state_->checks.load(std::memory_order_relaxed);
}

}  // namespace plt::core
