// The execution state a thread carries for its caller's work: the trace
// session it records into (obs::TraceBinding, DESIGN.md S23) and whether
// the structural validator's hooks run (ValidationScope, S24). Both belong
// to the thread, not the process. src/ starts threads in two places,
// mine_parallel's crew and serve::Server's acceptor and workers; each
// captures a ThreadContext on the starting thread and binds it first thing
// on every thread it starts. The flag lives here, apart from
// core/validate, so code that only passes it on (plt-serve) does not link
// the validator.
#pragma once

#include <optional>

#include "obs/trace.hpp"

namespace plt::core {

/// True when the calling thread is inside a ValidationScope.
bool validation_enabled();

/// Turns the validator's mining-path hooks (core/validate.hpp) on for the
/// calling thread until the scope ends. Scopes nest on a thread.
class ValidationScope {
 public:
  ValidationScope();
  ~ValidationScope();
  ValidationScope(const ValidationScope&) = delete;
  ValidationScope& operator=(const ValidationScope&) = delete;

 private:
  bool previous_;
};

/// The calling thread's context, captured at construction; copyable.
struct ThreadContext {
  obs::TraceBinding trace = obs::TraceBinding::current();
  bool validate = validation_enabled();
};

/// Binds a captured ThreadContext on the calling thread until it ends.
class BoundContext {
 public:
  explicit BoundContext(const ThreadContext& context) : trace_(context.trace) {
    if (context.validate) validation_.emplace();
  }

 private:
  obs::TraceBinding::Scope trace_;
  std::optional<ValidationScope> validation_;
};

}  // namespace plt::core
