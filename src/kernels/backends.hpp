// Internal: the AVX2 table accessor, defined only in avx2.cpp when the
// build compiled it in (src/CMakeLists.txt gates it on PLT_SIMD and
// compiler support). dispatch.cpp references the symbol only under
// PLT_KERNELS_HAVE_AVX2.
#pragma once

#include "kernels/kernels.hpp"

namespace plt::kernels {

const Dispatch* avx2_table();

}  // namespace plt::kernels
