// Blob loading and hot swap for plt-serve. A LoadedBlob is one PLT3
// container turned into everything the query engine needs, with the
// file's bytes gone: the vertical BlobIndex (per-rank entry-id lists,
// entry frequencies, frame ranges, per-rank supports and the total mass)
// and the ranks sorted by support, which makes top-k queries O(k). Nothing
// maps the file, so it can be rewritten or truncated under a serving blob.
//
// BlobStore owns the ordered list of blob paths (blob_id = position) and
// the current immutable BlobSet generation. Reload builds the entire next
// generation off to the side and swaps one shared_ptr under a mutex:
// in-flight requests keep the snapshot they started with, so a swap drains
// naturally — the old index is freed when the last request referencing it
// completes. A reload that fails (missing file, CRC mismatch) leaves the
// current generation serving untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compress/index.hpp"
#include "serve/protocol.hpp"
#include "util/thread_annotations.hpp"

namespace plt::serve {

struct LoadedBlob {
  std::string path;
  compress::BlobIndex index;
  /// Every rank with support > 0, sorted by support desc then rank asc —
  /// the top-k answer is a prefix of this.
  std::vector<TopEntry> ranks_by_support;
};

/// One immutable generation of loaded blobs; shared by snapshot.
struct BlobSet {
  std::uint32_t generation = 0;
  std::vector<std::unique_ptr<const LoadedBlob>> blobs;

  const LoadedBlob* blob(std::uint16_t id) const {
    return id < blobs.size() ? blobs[id].get() : nullptr;
  }
};

/// Reads, CRC-checks and indexes one blob file, then frees its bytes.
/// Throws std::runtime_error on any validation failure (the caller decides
/// whether that is fatal).
std::unique_ptr<const LoadedBlob> load_blob(const std::string& path);

class BlobStore {
 public:
  explicit BlobStore(std::vector<std::string> paths);

  /// Loads generation 1. Throws on the first bad blob.
  void load_initial();

  /// The current generation; never null after load_initial().
  std::shared_ptr<const BlobSet> snapshot() const PLT_EXCLUDES(mutex_);

  /// Builds the next generation from the same paths and swaps it in.
  /// Returns the new generation number; throws (keeping the old set
  /// serving) when any blob fails to load.
  std::uint32_t reload() PLT_EXCLUDES(mutex_);

  const std::vector<std::string>& paths() const { return paths_; }

 private:
  std::vector<std::string> paths_;
  mutable Mutex mutex_;
  std::shared_ptr<const BlobSet> current_ PLT_GUARDED_BY(mutex_);
  std::uint32_t generation_ PLT_GUARDED_BY(mutex_) = 0;
};

}  // namespace plt::serve
