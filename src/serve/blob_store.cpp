#include "serve/blob_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "compress/blob_format.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"

namespace plt::serve {

std::unique_ptr<const LoadedBlob> load_blob(const std::string& path) {
  PLT_SPAN("serve-load-blob");
  PLT_FAILPOINT("serve.load_blob");
  auto blob = std::make_unique<LoadedBlob>();
  blob->path = path;
  {
    // build_index verifies every CRC and every entry before it writes a
    // list byte — a corrupt byte anywhere fails the load here, before the
    // blob can serve a single query. The index holds everything a query
    // reads, so the bytes go at the end of this scope.
    const std::vector<std::uint8_t> bytes = compress::read_blob_file(path);
    blob->index = compress::build_index(bytes);
  }
  const compress::BlobIndex& index = blob->index;

  blob->ranks_by_support.reserve(index.item_support.size());
  for (Rank rank = 1; rank <= index.max_rank; ++rank) {
    const Count support = index.item_support[rank - 1];
    if (support > 0) blob->ranks_by_support.push_back({rank, support});
  }
  std::stable_sort(blob->ranks_by_support.begin(),
                   blob->ranks_by_support.end(),
                   [](const TopEntry& a, const TopEntry& b) {
                     if (a.support != b.support) return a.support > b.support;
                     return a.rank < b.rank;
                   });
  return blob;
}

BlobStore::BlobStore(std::vector<std::string> paths)
    : paths_(std::move(paths)) {}

void BlobStore::load_initial() {
  auto set = std::make_shared<BlobSet>();
  set->generation = 1;
  for (const std::string& path : paths_) set->blobs.push_back(load_blob(path));
  MutexLock lock(mutex_);
  current_ = std::move(set);
  generation_ = 1;
}

std::shared_ptr<const BlobSet> BlobStore::snapshot() const {
  MutexLock lock(mutex_);
  return current_;
}

std::uint32_t BlobStore::reload() {
  // Build the whole next generation before taking the lock: a failure here
  // propagates to the caller and the current set keeps serving.
  auto set = std::make_shared<BlobSet>();
  for (const std::string& path : paths_) set->blobs.push_back(load_blob(path));
  MutexLock lock(mutex_);
  set->generation = ++generation_;
  current_ = std::move(set);
  return generation_;
}

}  // namespace plt::serve
