#include "compress/index.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "compress/blob_format.hpp"
#include "compress/varint.hpp"
#include "util/common.hpp"

namespace plt::compress {

BlobIndex::ListCursor::ListCursor(const BlobIndex& index, Rank r)
    : left_(index.ids_of(r)) {
  if (left_ == 0) return;
  PLT_ASSERT(index.list_begin.size() == std::size_t{index.max_rank} + 1,
             "one list offset per rank plus the end");
  at_ = index.lists.data() + index.list_begin[r - 1];
  end_ = index.lists.data() + index.list_begin[r];
}

std::size_t BlobIndex::ListCursor::next(std::uint32_t* out, std::size_t max,
                                        std::uint32_t below) {
  // build_index wrote every list from verified entries, so each run of
  // deltas is complete; the end check below keeps that honest.
  std::size_t k = 0;
  for (; k < max && left_ > 0; ++k) {
    std::uint32_t delta = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t byte = *at_++;
      delta |= static_cast<std::uint32_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
    }
    id_ += delta;
    --left_;
    if (id_ >= below) {  // every later id is larger: the list is done
      left_ = 0;
      at_ = end_;
      break;
    }
    out[k] = id_;
  }
  PLT_ASSERT(left_ > 0 || at_ == end_,
             "a rank's list ends where the next one begins");
  return k;
}

std::size_t BlobIndex::decode_list(Rank r, std::uint32_t* out) const {
  return ListCursor(*this, r).next(out, ids_of(r));
}

std::uint32_t BlobIndex::length_end(std::uint32_t length) const {
  std::uint32_t end = 0;
  for (std::size_t f = 0; f < frames.size(); ++f)
    if (frames[f].length == length)
      end = f + 1 < frames.size() ? frames[f + 1].first_id
                                  : static_cast<std::uint32_t>(entries());
  return end;
}

std::size_t BlobIndex::keep_length(std::uint32_t length, std::uint32_t* ids,
                                   std::size_t n) const {
  // Ids and frames both ascend, so one cursor walks the frame ranges. An
  // empty frame shares its successor's first id and is stepped over; a
  // length may repeat across frames.
  std::size_t kept = 0, f = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t id = ids[k];
    while (f + 1 < frames.size() && frames[f + 1].first_id <= id) ++f;
    if (frames[f].length == length) ids[kept++] = id;
  }
  return kept;
}

std::size_t BlobIndex::memory_usage() const {
  return sizeof(BlobIndex) + frames.capacity() * sizeof(Frame) +
         freq.capacity() * sizeof(Count) +
         item_support.capacity() * sizeof(Count) +
         list_size.capacity() * sizeof(std::uint32_t) +
         list_begin.capacity() * sizeof(std::size_t) + lists.capacity();
}

BlobIndex build_index(std::span<const std::uint8_t> blob) {
  const BlobHeader header = read_blob_header(blob, "build_index");
  BlobIndex index;
  const Rank max_rank = header.max_rank;
  index.max_rank = max_rank;
  index.item_support.assign(max_rank, 0);
  index.list_size.assign(max_rank, 0);
  // Pass 1 sums rank r's byte count into list_begin[r]; the prefix sum
  // below turns the counts into offsets.
  index.list_begin.assign(std::size_t{max_rank} + 1, 0);
  std::vector<std::uint32_t> last(max_rank, 0);  // previous id per rank
  std::vector<PartitionFrame> verified;

  // Pass 1, the checked reader: every CRC and every entry's positions are
  // verified here, so the ranks below stay in 1..max_rank and no list byte
  // is written for a blob that fails.
  std::uint64_t entries = 0;
  for_each_checked_entry(
      blob, header, "build_index",
      [&](std::span<const Pos> v, Count freq) {
        if (entries >= std::numeric_limits<std::uint32_t>::max())
          throw std::runtime_error(
              "build_index: more entries than 32-bit ids");
        const auto id = static_cast<std::uint32_t>(entries++);
        index.total_freq += freq;
        Rank rank = 0;
        for (const Pos position : v) {
          rank += position;
          index.item_support[rank - 1] += freq;
          ++index.list_size[rank - 1];
          index.list_begin[rank] += varint_size(id - last[rank - 1]);
          last[rank - 1] = id;
        }
      },
      [&](const PartitionFrame& frame) {
        verified.push_back(frame);
        const auto first_id =
            static_cast<std::uint32_t>(entries - frame.entries);
        index.frames.push_back({frame.length, first_id});
      });
  for (Rank r = 1; r <= max_rank; ++r)
    index.list_begin[r] += index.list_begin[r - 1];

  // Pass 2 re-decodes the verified frames and writes each id's delta from
  // the rank's previous id at the rank's cursor: every list is sized
  // exactly, and nothing grows.
  index.lists.resize(index.list_begin[max_rank]);
  index.freq.resize(entries);
  std::vector<std::size_t> cursor(index.list_begin.begin(),
                                  index.list_begin.end() - 1);
  std::fill(last.begin(), last.end(), 0);
  core::PosVec v;
  std::uint32_t id = 0;
  for (const PartitionFrame& frame : verified) {
    std::size_t offset = frame.payload_begin;
    const auto payload = blob.first(frame.payload_end);
    for (std::uint64_t e = 0; e < frame.entries; ++e, ++id) {
      decode_blob_entry(payload, offset, frame.length, max_rank, v,
                        index.freq[id]);
      Rank rank = 0;
      for (const Pos position : v) {
        rank += position;
        std::uint32_t delta = id - last[rank - 1];
        last[rank - 1] = id;
        std::size_t& at = cursor[rank - 1];
        for (; delta >= 0x80; delta >>= 7)
          index.lists[at++] = static_cast<std::uint8_t>(delta | 0x80);
        index.lists[at++] = static_cast<std::uint8_t>(delta);
      }
    }
  }
  for (Rank r = 1; r <= max_rank; ++r)
    PLT_ASSERT(cursor[r - 1] == index.list_begin[r],
               "the second pass fills every list exactly");
  return index;
}

}  // namespace plt::compress
