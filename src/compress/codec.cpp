#include "compress/codec.hpp"

#include <stdexcept>

#include "compress/blob_format.hpp"
#include "compress/varint.hpp"
#include "core/validate.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "tdb/database.hpp"
#include "util/crc32c.hpp"
#include "util/failpoint.hpp"

namespace plt::compress {

namespace {

/// One entry's u32 value sequence in the block subformat: the positions
/// followed by the 64-bit freq split into lo/hi words.
void block_entry_values(std::span<const Pos> v, Count freq,
                        std::vector<std::uint32_t>& vals) {
  vals.assign(v.begin(), v.end());
  vals.push_back(static_cast<std::uint32_t>(freq & 0xffffffffull));
  vals.push_back(static_cast<std::uint32_t>(freq >> 32));
}

}  // namespace

std::vector<std::uint8_t> encode_plt(const core::Plt& plt) {
  PLT_SPAN("codec-encode");
  PLT_FAILPOINT("codec.encode");
  std::vector<std::uint8_t> out;
  out.reserve(64);
  for (const char c : kMagicV2) out.push_back(static_cast<std::uint8_t>(c));
  put_varint(out, plt.max_rank());

  std::uint32_t partitions = 0;
  for (std::uint32_t k = 1; k <= plt.max_len(); ++k)
    if (plt.partition(k) && !plt.partition(k)->empty()) ++partitions;
  put_varint(out, partitions);
  append_u32le(out, crc32c(std::span<const std::uint8_t>(out).subspan(4)));

  std::vector<std::uint8_t> payload;
  std::vector<std::uint32_t> vals;
  std::vector<std::uint8_t> scratch;
  for (std::uint32_t k = 1; k <= plt.max_len(); ++k) {
    const core::Partition* p = plt.partition(k);
    if (!p || p->empty()) continue;
    payload.clear();
    p->for_each([&](core::Partition::EntryId, std::span<const Pos> v,
                    const core::Partition::Entry& e) {
      // The group-varint encoding is canonical, so every kernel backend
      // emits identical payload bytes (and identical CRCs).
      block_entry_values(v, e.freq, vals);
      scratch.resize(kernels::encoded_block_bound(vals.size()));
      const std::size_t n = kernels::active().encode_varint_block(
          vals.data(), vals.size(), scratch.data());
      obs::count_kernel("kernel.encode_varint_block.calls",
                        "kernel.encode_varint_block.bytes", n);
      payload.insert(payload.end(), scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(n));
    });
    const std::size_t frame_begin = out.size();
    put_varint(out, k | kFrameBlockCoded);
    put_varint(out, p->size());
    put_varint(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
    append_u32le(out, crc32c(std::span<const std::uint8_t>(out)
                                 .subspan(frame_begin)));
  }
  return out;
}

core::Plt decode_plt(std::span<const std::uint8_t> bytes) {
  PLT_SPAN("codec-decode");
  PLT_FAILPOINT("codec.decode");
  const BlobHeader header = read_blob_header(bytes, "decode_plt");
  core::Plt plt(header.max_rank);
  for_each_checked_entry(
      bytes, header, "decode_plt",
      [&](const PartitionFrame&, std::size_t, std::span<const Pos> v, Rank,
          Count freq) { plt.add(v, freq); },
      [](const PartitionFrame&) {});
  // Untrusted-input path: under PLT_VALIDATE the decoded structure gets the
  // full whole-tree check on top of the reader's per-entry check.
  core::maybe_validate(plt, "decode_plt");
  return plt;
}

std::size_t raw_database_bytes(const tdb::Database& db) {
  return db.total_items() * sizeof(Item) + db.size() * sizeof(std::uint64_t);
}

}  // namespace plt::compress
