#include "shard/spec.hpp"

#include <cstring>
#include <stdexcept>

#include "compress/blob_format.hpp"
#include "compress/varint.hpp"
#include "util/crc32c.hpp"

namespace plt::shard {

namespace {

using compress::append_u32le;
using compress::get_varint;
using compress::put_varint;
using compress::read_u32le;

constexpr char kManifestMagic[4] = {'P', 'L', 'M', '2'};
constexpr char kSummaryMagic[4] = {'P', 'L', 'T', 'S'};

void check_magic(std::span<const std::uint8_t> bytes, const char (&magic)[4],
                 const char* who) {
  if (bytes.size() < 8 || std::memcmp(bytes.data(), magic, 4) != 0)
    throw std::runtime_error(std::string(who) + ": bad magic or truncated");
}

// Verifies the trailing CRC32C over everything after the magic and returns
// the span of the protected payload (between magic and CRC).
std::span<const std::uint8_t> checked_payload(
    std::span<const std::uint8_t> bytes, const char* who) {
  // Guard the arithmetic below: on a 5..7-byte input `crc_at - 4` would
  // wrap and the subspan would run off the buffer (callers do run
  // check_magic first, but this function must be safe standalone).
  if (bytes.size() < 8)
    throw std::runtime_error(std::string(who) + ": truncated");
  const std::size_t crc_at = bytes.size() - 4;
  const auto payload = bytes.subspan(4, crc_at - 4);
  const std::uint32_t stored = read_u32le(bytes, crc_at, who);
  if (crc32c(payload) != stored)
    throw std::runtime_error(std::string(who) + ": CRC mismatch");
  return payload;
}

void seal(std::vector<std::uint8_t>& out) {
  append_u32le(out, crc32c({out.data() + 4, out.size() - 4}));
}

}  // namespace

std::vector<std::uint64_t> rank_weights(const tdb::Database& ranked_db,
                                        Rank max_rank) {
  std::vector<std::uint64_t> weights(max_rank, 0);
  for (std::size_t t = 0; t < ranked_db.size(); ++t) {
    const std::span<const Item> row = ranked_db[t];
    for (std::size_t k = 0; k < row.size(); ++k) {
      PLT_ASSERT(row[k] >= 1 && row[k] <= max_rank,
                 "rank_weights: row item is not a rank in 1..max_rank");
      weights[row[k] - 1] += k;
    }
  }
  return weights;
}

std::vector<ShardSpec> split_shards(std::span<const std::uint64_t> weights,
                                    Rank max_rank, std::size_t shards) {
  if (shards == 0) throw std::invalid_argument("split_shards: zero shards");
  if (max_rank == 0) throw std::invalid_argument("split_shards: empty range");
  shards = std::min<std::size_t>(shards, max_rank);

  // Work weight of rank j: the positions of its conditional database plus
  // a constant for the fixed per-rank cost. Uniform when weights are
  // absent.
  const auto weight = [&](Rank j) -> std::uint64_t {
    return weights.size() < j ? 1 : 1 + weights[j - 1];
  };
  std::uint64_t remaining_weight = 0;
  for (Rank j = 1; j <= max_rank; ++j) remaining_weight += weight(j);

  // Greedy top-down split: walk max_rank..1 (the mining order) and close a
  // window at its fair share of the remaining weight. The rank that
  // crosses the share joins the window only when that lands nearer the
  // share than stopping before it. At least one rank is left per remaining
  // shard.
  std::vector<ShardSpec> specs;
  specs.reserve(shards);
  Rank hi = max_rank;
  for (std::size_t k = 0; k < shards; ++k) {
    const std::size_t remaining_shards = shards - k;
    const std::uint64_t target =
        (remaining_weight + remaining_shards - 1) / remaining_shards;
    Rank lo = hi;
    std::uint64_t taken = weight(hi);
    while (lo > 1 && taken < target &&
           (lo - 1) >= static_cast<Rank>(remaining_shards)) {
      const std::uint64_t next = taken + weight(lo - 1);
      if (next >= target && target - taken < next - target) break;
      --lo;
      taken = next;
    }
    if (k + 1 == shards) lo = 1;  // last shard absorbs the tail
    specs.push_back({k, lo, hi});
    remaining_weight -= taken;
    if (lo == 1) break;
    hi = lo - 1;
  }
  return specs;
}

std::vector<std::uint8_t> encode_manifest(const Manifest& manifest) {
  std::vector<std::uint8_t> out(kManifestMagic, kManifestMagic + 4);
  append_u32le(out, manifest.blob_crc);
  put_varint(out, manifest.min_support);
  put_varint(out, manifest.max_rank);
  put_varint(out, manifest.item_of.size());
  for (const Item item : manifest.item_of) put_varint(out, item);
  put_varint(out, manifest.shards.size());
  for (const ShardSpec& spec : manifest.shards) {
    put_varint(out, spec.rank_lo);
    put_varint(out, spec.rank_hi);
  }
  seal(out);
  return out;
}

Manifest decode_manifest(std::span<const std::uint8_t> bytes) {
  const char* who = "decode_manifest";
  check_magic(bytes, kManifestMagic, who);
  const auto payload = checked_payload(bytes, who);

  Manifest manifest;
  std::size_t at = 0;
  manifest.blob_crc = read_u32le(payload, at, who);
  at += 4;
  manifest.min_support = get_varint(payload, at);
  manifest.max_rank = static_cast<Rank>(get_varint(payload, at));
  const std::uint64_t items = get_varint(payload, at);
  // Every count below is bounded by the payload that must still encode it
  // (>= 1 byte per element), so a corrupted count cannot drive a huge
  // allocation even though the CRC already passed.
  if (items > payload.size())
    throw std::runtime_error(std::string(who) + ": impossible item count");
  manifest.item_of.reserve(items);
  for (std::uint64_t i = 0; i < items; ++i)
    manifest.item_of.push_back(static_cast<Item>(get_varint(payload, at)));
  const std::uint64_t shard_count = get_varint(payload, at);
  if (shard_count > payload.size())
    throw std::runtime_error(std::string(who) + ": impossible shard count");
  Rank expected_hi = manifest.max_rank;
  for (std::uint64_t k = 0; k < shard_count; ++k) {
    ShardSpec spec;
    spec.shard_id = k;
    spec.rank_lo = static_cast<Rank>(get_varint(payload, at));
    spec.rank_hi = static_cast<Rank>(get_varint(payload, at));
    // Windows must tile max_rank..1 contiguously in shard order — the
    // property the ordered merge depends on.
    if (spec.rank_lo == 0 || spec.rank_lo > spec.rank_hi ||
        spec.rank_hi != expected_hi)
      throw std::runtime_error(std::string(who) + ": shard windows do not "
                                                  "tile the rank range");
    expected_hi = spec.rank_lo - 1;
    manifest.shards.push_back(spec);
  }
  if (shard_count > 0 && expected_hi != 0)
    throw std::runtime_error(std::string(who) +
                             ": shard windows do not reach rank 1");
  if (at != payload.size())
    throw std::runtime_error(std::string(who) + ": trailing bytes");
  return manifest;
}

std::vector<std::uint8_t> encode_summary(const ShardSummary& summary) {
  std::vector<std::uint8_t> out(kSummaryMagic, kSummaryMagic + 4);
  put_varint(out, summary.shard_id);
  put_varint(out, summary.rank_lo);
  put_varint(out, summary.rank_hi);
  put_varint(out, summary.itemsets);
  put_varint(out, summary.bytes_decoded);
  put_varint(out, summary.checkpoint_records);
  put_varint(out, summary.resumed_ranks);
  put_varint(out, summary.warmed_ranks);
  put_varint(out, summary.wall_ns);
  put_varint(out, summary.trace_json.size());
  out.insert(out.end(), summary.trace_json.begin(), summary.trace_json.end());
  seal(out);
  return out;
}

ShardSummary decode_summary(std::span<const std::uint8_t> bytes) {
  const char* who = "decode_summary";
  check_magic(bytes, kSummaryMagic, who);
  const auto payload = checked_payload(bytes, who);

  ShardSummary summary;
  std::size_t at = 0;
  summary.shard_id = get_varint(payload, at);
  summary.rank_lo = static_cast<Rank>(get_varint(payload, at));
  summary.rank_hi = static_cast<Rank>(get_varint(payload, at));
  summary.itemsets = get_varint(payload, at);
  summary.bytes_decoded = get_varint(payload, at);
  summary.checkpoint_records = get_varint(payload, at);
  summary.resumed_ranks = get_varint(payload, at);
  summary.warmed_ranks = get_varint(payload, at);
  summary.wall_ns = get_varint(payload, at);
  const std::uint64_t json_len = get_varint(payload, at);
  if (json_len > payload.size() - at)
    throw std::runtime_error(std::string(who) + ": truncated trace JSON");
  summary.trace_json.assign(
      reinterpret_cast<const char*>(payload.data()) + at, json_len);
  at += json_len;
  if (at != payload.size())
    throw std::runtime_error(std::string(who) + ": trailing bytes");
  return summary;
}

std::string blob_path(const std::string& dir) { return dir + "/job.plt"; }

std::string manifest_path(const std::string& dir) {
  return dir + "/job.pltm";
}

std::string checkpoint_path(const std::string& dir, std::size_t shard_id) {
  return dir + "/shard-" + std::to_string(shard_id) + ".pltk";
}

std::string summary_path(const std::string& dir, std::size_t shard_id) {
  return dir + "/shard-" + std::to_string(shard_id) + ".plts";
}

}  // namespace plt::shard
