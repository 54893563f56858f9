// Shared command-line flags. --backend, on every bench/example binary,
// forwards the name to kernels::select_backend so a whole sweep can be
// pinned to the scalar reference or a specific SIMD backend; without it the
// PLT_KERNEL_BACKEND environment variable (read at first use) decides.
// --plan exists only on plt-mine and plt-shard, which hand the parsed
// PlanMode to their mine calls; every other binary sets its plan per call
// in code.
#pragma once

#include <iostream>
#include <optional>
#include <string>

#include "core/planner.hpp"
#include "kernels/kernels.hpp"
#include "util/args.hpp"

namespace plt::harness {

/// Applies `--backend=scalar|sse42|avx2|simd|auto`. Returns false (after
/// printing a diagnostic) on unknown or unavailable names, so callers can
/// `return 2` and the bad flag can't silently bench the wrong backend.
/// `announce` controls the success line benches print; the CLI passes
/// false to keep machine-readable stdout (CSV, itemset dumps) clean.
inline bool apply_backend_flag(const Args& args, bool announce = true) {
  const std::string name = args.get("backend", "");
  if (!kernels::select_backend(name)) {
    std::cerr << args.program() << ": unknown or unavailable kernel backend \""
              << name << "\" (expected scalar, simd, sse42, avx2 or auto)\n";
    return false;
  }
  if (announce)
    std::cout << "kernel backend: " << kernels::active().name << "\n";
  return true;
}

/// Parses `--plan=fixed|adaptive` (absent = fixed). Returns nullopt (after
/// printing a diagnostic) on any other name, so a typo'd flag can't
/// silently mine under the wrong execution plan.
inline std::optional<core::PlanMode> parse_plan_flag(const Args& args) {
  const std::string name = args.get("plan", "fixed");
  const std::optional<core::PlanMode> plan = core::parse_plan(name);
  if (!plan)
    std::cerr << args.program() << ": unknown --plan \"" << name
              << "\" (expected fixed or adaptive)\n";
  return plan;
}

}  // namespace plt::harness
