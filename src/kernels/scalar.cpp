#include "kernels/scalar_impl.hpp"

namespace plt::kernels {

namespace {

constexpr Dispatch kScalarDispatch = {
    Backend::kScalar,
    "scalar",
    detail::scalar_intersect_sorted,
    detail::scalar_intersect_count,
};

}  // namespace

const Dispatch& scalar_dispatch() { return kScalarDispatch; }

}  // namespace plt::kernels
