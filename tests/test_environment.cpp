// Linked into every test binary (plt_test in tests/CMakeLists.txt). When
// PLT_VALIDATE is set and is not "0" or "off", a gtest environment opens a
// core::ValidationScope on the main thread for the whole run, so every
// tree a test's mine builds, rebuilds or decodes on that thread — and on
// the threads mine_parallel starts for it, which inherit the flag — runs
// the structural validator. The library itself reads no environment
// variable; this is the one place the test binaries do.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string_view>

#include "core/thread_context.hpp"

namespace {

class ValidationEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    const char* env = std::getenv("PLT_VALIDATE");
    const std::string_view value = env != nullptr ? env : "";
    if (!value.empty() && value != "0" && value != "off" && value != "OFF")
      scope_.emplace();
  }
  void TearDown() override { scope_.reset(); }

 private:
  std::optional<plt::core::ValidationScope> scope_;
};

// gtest owns the environment once registered.
[[maybe_unused]] ::testing::Environment* const kValidationEnvironment =
    ::testing::AddGlobalTestEnvironment(new ValidationEnvironment);

}  // namespace
