#include "core/thread_context.hpp"

namespace plt::core {

namespace {

thread_local bool t_validating = false;

}  // namespace

bool validation_enabled() { return t_validating; }

ValidationScope::ValidationScope() : previous_(t_validating) {
  t_validating = true;
}

ValidationScope::~ValidationScope() { t_validating = previous_; }

}  // namespace plt::core
