// Backend selection. The active table is one atomic pointer to an
// immutable Dispatch — readers take an acquire load, switchers a release
// store, so concurrent mines racing a set_backend() see either complete
// table (both compute identical functions, contract rule #1) and TSan sees
// only the atomic. PLT_KERNELS_HAVE_AVX2 is a private define set by
// src/CMakeLists.txt only when -DPLT_SIMD=ON and the compiler takes the
// -mavx2 flag; CPU support is still probed at runtime.
//
// This file is the dispatcher, not a kernel: name lookup and the env
// override legitimately use std::string/getenv, which the purity rule
// bans in kernel implementations. plt-lint: allow-file(kernel-purity)
#include <atomic>
#include <cstdlib>

#include "kernels/backends.hpp"
#include "kernels/kernels.hpp"

namespace plt::kernels {

namespace {

// [[maybe_unused]]: only consulted when the AVX2 backend is compiled in;
// under -DPLT_SIMD=OFF resolution never asks about CPU features.
[[maybe_unused]] bool cpu_has_avx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const Dispatch* table_for(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &scalar_dispatch();
    case Backend::kAVX2:
#if PLT_KERNELS_HAVE_AVX2
      if (cpu_has_avx2()) return avx2_table();
#endif
      return nullptr;
  }
  return nullptr;
}

const Dispatch* named_table(const std::string& name) {
  if (name == "scalar") return &scalar_dispatch();
  if (name == "auto") return table_for(best_supported());
  if (name == "avx2") return table_for(Backend::kAVX2);
  return nullptr;
}

const Dispatch* resolve_default() {
  if (const char* env = std::getenv("PLT_KERNEL_BACKEND")) {
    if (const Dispatch* d = named_table(env)) return d;
    // Unknown or unavailable name in the environment: fall back to auto
    // rather than failing a process that never asked for kernels.
  }
  return table_for(best_supported());
}

std::atomic<const Dispatch*> g_active{nullptr};

const Dispatch* load_active() {
  const Dispatch* d = g_active.load(std::memory_order_acquire);
  if (d == nullptr) {
    const Dispatch* resolved = resolve_default();
    if (g_active.compare_exchange_strong(d, resolved,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
      d = resolved;  // first resolver published; losers use what they read
  }
  return d;
}

}  // namespace

const Dispatch& active() { return *load_active(); }

const Dispatch* dispatch_for(Backend backend) { return table_for(backend); }

Backend best_supported() {
  if (table_for(Backend::kAVX2) != nullptr) return Backend::kAVX2;
  return Backend::kScalar;
}

bool set_backend(Backend backend) {
  const Dispatch* d = table_for(backend);
  if (d == nullptr) return false;
  g_active.store(d, std::memory_order_release);
  return true;
}

bool select_backend(const std::string& name) {
  if (name.empty()) return true;
  const Dispatch* d = named_table(name);
  if (d == nullptr) return false;
  g_active.store(d, std::memory_order_release);
  return true;
}

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAVX2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace plt::kernels
