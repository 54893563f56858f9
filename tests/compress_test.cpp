// Compression & serialization tests: varint round-trips and failure modes,
// PLT codec round-trips, hostile values behind valid CRCs, and the blob's
// vertical index (per-rank entry-id lists).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "blob_test_support.hpp"
#include "compress/blob_format.hpp"
#include "compress/codec.hpp"
#include "compress/index.hpp"
#include "compress/ooc_miner.hpp"
#include "compress/varint.hpp"
#include "core/builder.hpp"
#include "datagen/quest.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace plt::compress {
namespace {

TEST(Varint, RoundTripBoundaryValues) {
  const std::uint64_t values[] = {0,     1,    127,  128,   16383, 16384,
                                  1u << 21,    0xffffffffULL,
                                  0xffffffffffffffffULL};
  for (const auto value : values) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, value);
    EXPECT_EQ(buf.size(), varint_size(value)) << value;
    std::size_t offset = 0;
    EXPECT_EQ(get_varint(buf, offset), value);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(Varint, RandomizedRoundTrip) {
  Rng rng(81);
  std::vector<std::uint8_t> buf;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_u64() >> (rng.next_below(64));
    values.push_back(v);
    put_varint(buf, v);
  }
  std::size_t offset = 0;
  for (const auto v : values) EXPECT_EQ(get_varint(buf, offset), v);
  EXPECT_EQ(offset, buf.size());
}

TEST(Varint, TruncatedInputThrows) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 1u << 20);
  buf.pop_back();
  std::size_t offset = 0;
  EXPECT_THROW(get_varint(buf, offset), std::runtime_error);
}

TEST(Varint, OverlongEncodingThrows) {
  const std::vector<std::uint8_t> buf(11, 0x80);
  std::size_t offset = 0;
  EXPECT_THROW(get_varint(buf, offset), std::runtime_error);
}

core::Plt sample_plt() {
  core::Plt plt(10);
  plt.add(core::PosVec{1, 1, 1}, 5);
  plt.add(core::PosVec{2, 3}, 2);
  plt.add(core::PosVec{7}, 9);
  plt.add(core::PosVec{1, 2, 3, 4}, 1);
  return plt;
}

std::map<core::PosVec, Count> plt_contents(const core::Plt& plt) {
  std::map<core::PosVec, Count> out;
  plt.for_each([&](core::Plt::Ref, std::span<const Pos> v,
                   const core::Partition::Entry& e) {
    out[core::PosVec(v.begin(), v.end())] = e.freq;
  });
  return out;
}

TEST(Codec, RoundTripSmall) {
  const auto plt = sample_plt();
  const auto blob = encode_plt(plt);
  const auto decoded = decode_plt(blob);
  EXPECT_EQ(decoded.max_rank(), plt.max_rank());
  EXPECT_EQ(plt_contents(decoded), plt_contents(plt));
}

TEST(Codec, RoundTripRealWorkload) {
  datagen::QuestConfig cfg;
  cfg.transactions = 1500;
  cfg.items = 120;
  cfg.seed = 5;
  const auto db = datagen::generate_quest(cfg);
  const auto built = core::build_from_database(db, 3);
  const auto blob = encode_plt(built.plt);
  const auto decoded = decode_plt(blob);
  EXPECT_EQ(plt_contents(decoded), plt_contents(built.plt));
  // The varint encoding must beat the in-memory footprint comfortably.
  EXPECT_LT(blob.size(), built.plt.memory_usage());
}

TEST(Codec, BadMagicThrows) {
  auto blob = encode_plt(sample_plt());
  blob[0] = 'X';
  EXPECT_THROW(decode_plt(blob), std::runtime_error);
}

TEST(Codec, TruncatedBlobThrows) {
  auto blob = encode_plt(sample_plt());
  blob.resize(blob.size() / 2);
  EXPECT_THROW(decode_plt(blob), std::runtime_error);
}

// ---- hostile values behind valid CRCs ----------------------------------

using plt::testing::entry_frame;
using plt::testing::RawFrame;
using plt::testing::sealed_blob;

TEST(Codec, SealedBlobMatchesTheEncoder) {
  // The helper writes the encoder's exact bytes for a well-formed PLT, so
  // the hostile blobs below differ from real ones only where they mean to.
  core::Plt plt(4);
  plt.add(core::PosVec{1, 2}, 4);
  plt.add(core::PosVec{3}, 2);
  const auto expected = encode_plt(plt);
  const auto hand = sealed_blob(
      4, {entry_frame(1, {{{3}, 2}}), entry_frame(2, {{{1, 2}, 4}})});
  EXPECT_EQ(hand, expected);
}

TEST(Codec, CorruptPositionThrows) {
  // A zero position value.
  const auto blob = sealed_blob(4, {entry_frame(1, {{{0}, 1}})});
  EXPECT_THROW(decode_plt(blob), std::runtime_error);
  EXPECT_THROW(build_index(blob), std::runtime_error);
}

TEST(Codec, PositionAboveMaxRankThrows) {
  const auto blob = sealed_blob(4, {entry_frame(1, {{{5}, 1}})});
  EXPECT_THROW(decode_plt(blob), std::runtime_error);
  EXPECT_THROW(build_index(blob), std::runtime_error);
}

TEST(Codec, EntryCountPayloadMismatchThrows) {
  // Two entries in the payload, one declared: the reader stops short of the
  // payload end. And the reverse: two declared, one present.
  RawFrame extra_bytes = entry_frame(1, {{{1}, 1}, {{2}, 1}});
  extra_bytes.entries = 1;
  RawFrame missing_entry = entry_frame(1, {{{1}, 1}, {{2}, 1}});
  missing_entry.payload.resize(missing_entry.payload.size() / 2);
  for (const RawFrame& frame : {extra_bytes, missing_entry}) {
    const auto blob = sealed_blob(4, {frame});
    EXPECT_THROW(decode_plt(blob), std::runtime_error);
    EXPECT_THROW(build_index(blob), std::runtime_error);
  }
}

TEST(Codec, Plt2MagicThrows) {
  // A blob sealed under the group-varint layout is refused at its header,
  // before any frame is read.
  const auto blob = plt::testing::plt2_blob();
  EXPECT_THROW((void)decode_plt(blob), std::runtime_error);
  EXPECT_THROW((void)build_index(blob), std::runtime_error);
  try {
    (void)read_blob_header(blob, "header");
    ADD_FAILURE() << "a PLT2 header was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "header: bad magic");
  }
}

/// Every whole-blob reader must refuse `blob` with a typed error.
void expect_every_reader_throws(const std::vector<std::uint8_t>& blob,
                                const char* what) {
  const std::vector<Item> item_of = {1, 2, 3, 4};
  EXPECT_THROW((void)decode_plt(blob), std::runtime_error) << what;
  EXPECT_THROW((void)build_index(blob), std::runtime_error) << what;
  EXPECT_THROW(mine_from_blob(blob, item_of, 1,
                              [](std::span<const Item>, Count) {}),
               std::runtime_error)
      << what;
}

TEST(Codec, HostileEntryVarintsThrowInEveryReader) {
  // Each frame is sealed behind correct CRCs over max_rank 4, so only the
  // entry reader's own checks stand between these bytes and the readers.
  expect_every_reader_throws(sealed_blob(4, {entry_frame(1, {{{5}, 1}})}),
                             "position varint above max_rank");

  // 2^32 + 1 narrows to the valid position 1; the varint is refused first.
  RawFrame wide;
  wide.length = 1;
  wide.entries = 1;
  put_varint(wide.payload, (std::uint64_t{1} << 32) + 1);
  put_varint(wide.payload, 1);
  expect_every_reader_throws(sealed_blob(4, {wide}), "position 2^32 + 1");

  // The frequency's continuation byte is the payload's last byte; the CRC
  // that follows must not be read as the rest of the varint.
  RawFrame cut;
  cut.length = 1;
  cut.entries = 1;
  cut.payload = {0x01, 0x81};
  expect_every_reader_throws(sealed_blob(4, {cut}),
                             "varint truncated at the payload end");

  // Eleven bytes that a lenient reader would take for position 1.
  RawFrame overlong;
  overlong.length = 1;
  overlong.entries = 1;
  overlong.payload = {0x81};
  overlong.payload.insert(overlong.payload.end(), 9, 0x80);
  overlong.payload.push_back(0x00);
  overlong.payload.push_back(0x01);  // the frequency
  expect_every_reader_throws(sealed_blob(4, {overlong}), "11-byte varint");

  // Three payload bytes hold at most one entry of length 2.
  RawFrame crowded = entry_frame(2, {{{1, 2}, 1}});
  crowded.entries = 2;
  expect_every_reader_throws(sealed_blob(4, {crowded}),
                             "entry count above payload / (length + 1)");
}

TEST(Codec, Plt1MagicThrows) {
  const char plt1[4] = {'P', 'L', 'T', '1'};
  const auto blob = sealed_blob(4, {entry_frame(1, {{{1}, 1}})}, plt1);
  EXPECT_THROW(decode_plt(blob), std::runtime_error);
  EXPECT_THROW(build_index(blob), std::runtime_error);
}

TEST(Codec, WideFrequencySurvivesBothSubformats) {
  // The frequency is one 64-bit varint: counts past 2^32 must round-trip
  // exactly.
  core::Plt plt(4);
  const Count wide = (Count{1} << 32) + 3;
  const Count wider = (Count{5} << 40) + 9;
  plt.add(std::vector<Pos>{1, 2}, wide);
  plt.add(std::vector<Pos>{3}, wider);
  const auto decoded = decode_plt(encode_plt(plt));
  EXPECT_EQ(decoded.freq_of(std::vector<Pos>{1, 2}), wide);
  EXPECT_EQ(decoded.freq_of(std::vector<Pos>{3}), wider);
}

TEST(Codec, RawDatabaseBytes) {
  const auto db = tdb::Database::from_rows({{1, 2, 3}, {4}});
  EXPECT_EQ(raw_database_bytes(db), 4u * sizeof(Item) +
                                        2u * sizeof(std::uint64_t));
}

/// Rank r's entry ids as the index decodes them.
std::vector<std::uint32_t> list_of(const BlobIndex& index, Rank r) {
  std::vector<std::uint32_t> ids(index.ids_of(r));
  EXPECT_EQ(index.decode_list(r, ids.data()), ids.size());
  return ids;
}

TEST(Index, PartitionRangesAndSelectiveDecode) {
  const auto plt = sample_plt();
  const auto blob = encode_plt(plt);
  const auto index = build_index(blob);
  EXPECT_EQ(index.max_rank, 10u);
  EXPECT_EQ(index.frames.size(), 4u);  // lengths 1,2,3,4
  ASSERT_EQ(index.entries(), 4u);

  // The length-3 frame holds one entry, {1,1,1} with freq 5: of every id,
  // one survives the frame-length filter, and ranks 1, 2 and 3 list it.
  std::vector<std::uint32_t> ids(index.entries());
  std::iota(ids.begin(), ids.end(), 0u);
  ids.resize(index.keep_length(3, ids.data(), ids.size()));
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(index.freq[ids[0]], 5u);
  for (const Rank r : {1u, 2u, 3u}) {
    const auto list = list_of(index, r);
    EXPECT_TRUE(std::binary_search(list.begin(), list.end(), ids[0])) << r;
  }
  std::vector<std::uint32_t> all(index.entries());
  std::iota(all.begin(), all.end(), 0u);
  EXPECT_EQ(index.keep_length(7, all.data(), all.size()), 0u);
}

TEST(Index, RankListDecode) {
  core::Plt plt(6);
  plt.add(core::PosVec{1, 2}, 4);   // ranks 1, 3
  plt.add(core::PosVec{3}, 7);      // rank 3
  plt.add(core::PosVec{1, 1, 3}, 1);  // ranks 1, 2, 5
  const auto blob = encode_plt(plt);
  const auto index = build_index(blob);

  const auto list = list_of(index, 3);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  Count mass = 0;
  for (const std::uint32_t id : list) mass += index.freq[id];
  EXPECT_EQ(mass, 11u);
  EXPECT_EQ(index.item_support[3 - 1], 11u);
  EXPECT_EQ(index.total_freq, 12u);
  EXPECT_EQ(index.ids_of(6), 0u);
  EXPECT_EQ(index.ids_of(99), 0u);
  EXPECT_EQ(index.decode_list(99, nullptr), 0u);
}

TEST(Index, BadBlobThrows) {
  std::vector<std::uint8_t> junk{'N', 'O', 'P', 'E', 0, 0};
  EXPECT_THROW(build_index(junk), std::runtime_error);
}

TEST(Index, MemoryUsagePositive) {
  const auto blob = encode_plt(sample_plt());
  EXPECT_GT(build_index(blob).memory_usage(), 0u);
}

}  // namespace
}  // namespace plt::compress
