#include "compress/codec.hpp"

#include <stdexcept>

#include "compress/blob_format.hpp"
#include "compress/varint.hpp"
#include "core/validate.hpp"
#include "obs/trace.hpp"
#include "tdb/database.hpp"
#include "util/crc32c.hpp"
#include "util/failpoint.hpp"

namespace plt::compress {

std::vector<std::uint8_t> encode_plt(const core::Plt& plt) {
  PLT_SPAN("codec-encode");
  PLT_FAILPOINT("codec.encode");
  std::vector<std::uint8_t> out;
  out.reserve(64);
  for (const char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  put_varint(out, plt.max_rank());

  std::uint32_t partitions = 0;
  for (std::uint32_t k = 1; k <= plt.max_len(); ++k)
    if (plt.partition(k) && !plt.partition(k)->empty()) ++partitions;
  put_varint(out, partitions);
  append_u32le(out, crc32c(std::span<const std::uint8_t>(out).subspan(4)));

  std::vector<std::uint8_t> payload;
  for (std::uint32_t k = 1; k <= plt.max_len(); ++k) {
    const core::Partition* p = plt.partition(k);
    if (!p || p->empty()) continue;
    payload.clear();
    p->for_each([&](core::Partition::EntryId, std::span<const Pos> v,
                    const core::Partition::Entry& e) {
      put_blob_entry(payload, v, e.freq);
    });
    const std::size_t frame_begin = out.size();
    put_varint(out, k);
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
      [&](std::span<const Pos> v, Count freq) { plt.add(v, freq); },
      [](const PartitionFrame&) {});
  // Untrusted-input path: inside a core::ValidationScope the decoded
  // structure gets the full whole-tree check on top of the reader's
  // per-entry check.
  core::maybe_validate(plt, "decode_plt");
  return plt;
}

std::size_t raw_database_bytes(const tdb::Database& db) {
  return db.total_items() * sizeof(Item) + db.size() * sizeof(std::uint64_t);
}

}  // namespace plt::compress
