// Shared command-line flags. --backend, on every bench/example binary,
// forwards the name to kernels::select_backend so a whole sweep can be
// pinned to the scalar reference or the AVX2 backend; without it the
// PLT_KERNEL_BACKEND environment variable (read at first use) decides.
#pragma once

#include <iostream>
#include <string>

#include "kernels/kernels.hpp"
#include "util/args.hpp"

namespace plt::harness {

/// Applies `--backend=scalar|avx2|auto`. Returns false (after
/// printing a diagnostic) on unknown or unavailable names, so callers can
/// `return 2` and the bad flag can't silently bench the wrong backend.
/// `announce` controls the success line benches print; the CLI passes
/// false to keep machine-readable stdout (CSV, itemset dumps) clean.
inline bool apply_backend_flag(const Args& args, bool announce = true) {
  const std::string name = args.get("backend", "");
  if (!kernels::select_backend(name)) {
    std::cerr << args.program() << ": unknown or unavailable kernel backend \""
              << name << "\" (expected scalar, avx2 or auto)\n";
    return false;
  }
  if (announce)
    std::cout << "kernel backend: " << kernels::active().name << "\n";
  return true;
}

}  // namespace plt::harness
