// Runtime-dispatched data-parallel kernels for the one job where a SIMD
// body moves an end-to-end number: sorted-u32 tidlist intersection (the
// Eclat / dEclat / CHARM baselines, the engine's tidset strategy,
// count_supports_vertical and serve's rank-list queries), materialized or
// counted.
//
// Architecture (see DESIGN.md "Vectorized kernel layer"):
//
//   * Every kernel exists as a scalar reference implementation (always
//     compiled, any platform) and optionally as an AVX2 backend (x86-64,
//     compiled only under -DPLT_SIMD=ON).
//   * A backend is one immutable `Dispatch` table of function pointers.
//     `active()` returns the process-wide table, chosen once at first use
//     from CPU features (and the PLT_KERNEL_BACKEND environment variable);
//     `set_backend()` / `select_backend()` switch it explicitly. The table
//     pointer is a single atomic, so dispatch is thread-safe and TSan-clean.
//   * Contract rule #1: every backend computes the *same function* —
//     bit-identical results for identical inputs. Differential tests in
//     tests/kernels_test.cpp pin the AVX2 backend to the scalar reference
//     on randomized and adversarial inputs.
//   * Contract rule #2: no alignment requirements. Callers hand spans at
//     arbitrary offsets; backends use unaligned loads.
//   * Contract rule #3: kernels never allocate and never throw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace plt::kernels {

enum class Backend { kScalar, kAVX2 };

/// One backend: an immutable table of kernel entry points.
struct Dispatch {
  Backend backend;
  const char* name;

  /// Sorted-u32 set intersection (inputs strictly increasing, as tidlists
  /// are). Galloping on wildly asymmetric sizes, block compares otherwise.
  /// `out` must have room for min(na, nb) + 4 values: the SIMD path
  /// compress-stores 16-byte blocks past the live prefix. Returns the
  /// intersection size; out[0..size) is the sorted intersection.
  std::size_t (*intersect_sorted)(const std::uint32_t* a, std::size_t na,
                                  const std::uint32_t* b, std::size_t nb,
                                  std::uint32_t* out);

  /// intersect_sorted without materializing the result.
  std::size_t (*intersect_count)(const std::uint32_t* a, std::size_t na,
                                 const std::uint32_t* b, std::size_t nb);
};

/// The process-wide active backend. First call resolves it: the
/// PLT_KERNEL_BACKEND environment variable if set ("scalar", "avx2",
/// "auto"), otherwise the best CPU-supported backend.
const Dispatch& active();

/// The scalar reference table (always available; differential anchor).
const Dispatch& scalar_dispatch();

/// The table for a specific backend, or nullptr when it was compiled out
/// (-DPLT_SIMD=OFF / non-x86) or the CPU lacks the feature.
const Dispatch* dispatch_for(Backend backend);

/// Best backend this build + CPU supports (kScalar at worst).
Backend best_supported();

/// Forces a backend. Returns false (and leaves the active table unchanged)
/// when that backend is unavailable. Process configuration, set once
/// before mining starts (tests and benches comparing backends set it and
/// restore it); no mine option selects a backend. Concurrent mines all see
/// a switch, which is safe because backends compute identical functions.
bool set_backend(Backend backend);

/// Named selection for --backend flags and PLT_KERNEL_BACKEND:
///   ""        -> no-op (keep current/default), returns true
///   "auto"    -> best_supported()
///   "scalar"  -> scalar reference
///   "avx2"    -> AVX2 backend, false if unavailable
/// Unknown names return false. Selection is dispatcher API, not kernel
/// code, so the std::string is fine. plt-lint: allow(kernel-purity)
bool select_backend(const std::string& name);

const char* backend_name(Backend backend);

}  // namespace plt::kernels
