// Runtime-dispatched data-parallel kernels for the hot loops the profile
// actually shows: prefix peeling into flat conditional databases, position
// vector hashing/equality behind the Partition index, group-varint block
// coding inside PLT2 frames, sorted-u32 tidlist intersection, and the
// horizontal reductions behind support tallies.
//
// Architecture (see DESIGN.md "Vectorized kernel layer"):
//
//   * Every kernel exists as a scalar reference implementation (always
//     compiled, any platform) and optionally as SSE4.2/AVX2 backends
//     (x86-64, compiled only under -DPLT_SIMD=ON).
//   * A backend is one immutable `Dispatch` table of function pointers.
//     `active()` returns the process-wide table, chosen once at first use
//     from CPU features (and the PLT_KERNEL_BACKEND environment variable);
//     `set_backend()` / `select_backend()` switch it explicitly. The table
//     pointer is a single atomic, so dispatch is thread-safe and TSan-clean.
//   * Contract rule #1: every backend computes the *same function* —
//     bit-identical results for identical inputs, including the hash (the
//     hash value feeds std::unordered_map iteration orders that are
//     observable in emission order, so backends may not disagree) and
//     including wrap-around behaviour (all arithmetic is mod 2^32 / 2^64).
//     Differential tests in tests/kernels_test.cpp pin each backend to the
//     scalar reference on randomized and adversarial inputs.
//   * Contract rule #2: no alignment requirements. Callers hand spans at
//     arbitrary offsets; backends use unaligned loads.
//   * Contract rule #3: kernels never allocate and never throw. Decode
//     reports malformed input via kDecodeError; callers turn that into
//     their own error type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace plt::kernels {

enum class Backend { kScalar = 0, kSSE42 = 1, kAVX2 = 2 };

/// Returned by decode_varint_block on truncated/overlong input.
inline constexpr std::size_t kDecodeError = static_cast<std::size_t>(-1);

/// One backend: an immutable table of kernel entry points.
struct Dispatch {
  Backend backend;
  const char* name;

  /// Inclusive prefix sums: sums[i] = gaps[0] + ... + gaps[i], mod 2^32.
  /// The projection engine runs this over a whole FlatCondDb arena in one
  /// call and re-bases each record by subtracting the sum before its
  /// offset — the mod-2^32 wrap-around makes that exact regardless of the
  /// arena's running total (differential tests cover near-UINT32_MAX sums).
  void (*peel_prefixes)(const std::uint32_t* gaps, std::uint32_t* sums,
                        std::size_t n);

  /// Block-wise position-vector hash (8 independent 32-bit lanes folded
  /// into a splitmix-finalized 64-bit value). All backends produce the
  /// same value for the same input — see contract rule #1.
  std::uint64_t (*hash_positions)(const std::uint32_t* v, std::size_t n);

  /// Wide vector equality (memcmp over n u32 words).
  bool (*equals_positions)(const std::uint32_t* a, const std::uint32_t* b,
                           std::size_t n);

  /// Group-varint block coding: values are written in groups of four, one
  /// control byte (2 bits per value: encoded byte length minus one)
  /// followed by the little-endian value bytes. A final partial group
  /// holds n % 4 values; its unused control bits are zero. The encoding
  /// of a value sequence is canonical, so every backend emits identical
  /// bytes. `out` must have room for encoded_block_bound(n) bytes (the
  /// SIMD encoder stores 16-byte blocks and lets the next group overwrite
  /// the padding). Returns the encoded byte count.
  std::size_t (*encode_varint_block)(const std::uint32_t* values,
                                     std::size_t n, std::uint8_t* out);

  /// Decodes exactly n values from `in` (at most in_len bytes). Returns
  /// the number of bytes consumed, or kDecodeError when the input is
  /// truncated. `out` must have room for n values; no bytes beyond the
  /// consumed prefix are interpreted, no slots beyond n are written.
  std::size_t (*decode_varint_block)(const std::uint8_t* in,
                                     std::size_t in_len, std::uint32_t* out,
                                     std::size_t n);

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

  /// Horizontal reduction over support tallies, mod 2^64.
  std::uint64_t (*sum_counts)(const std::uint64_t* counts, std::size_t n);

  /// Horizontal reduction over position words, mod 2^32 (vector_sum).
  std::uint32_t (*sum_positions)(const std::uint32_t* positions,
                                 std::size_t n);
};

/// The process-wide active backend. First call resolves it: the
/// PLT_KERNEL_BACKEND environment variable if set ("scalar", "simd",
/// "sse42", "avx2", "auto"), otherwise the best CPU-supported backend.
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
///   "simd"    -> best_supported() (scalar when no SIMD backend compiled)
///   "sse42"   -> SSE4.2 backend, false if unavailable
///   "avx2"    -> AVX2 backend, false if unavailable
/// Unknown names return false. Selection is dispatcher API, not kernel
/// code, so the std::string is fine. plt-lint: allow(kernel-purity)
bool select_backend(const std::string& name);

const char* backend_name(Backend backend);

/// Worst-case encode_varint_block output for n values (caller's buffer
/// contract): one control byte per group of four plus four bytes per value.
constexpr std::size_t encoded_block_bound(std::size_t n) {
  return (n + 3) / 4 + 4 * n;
}

}  // namespace plt::kernels
