#include "serve/query_engine.hpp"

#include <algorithm>

#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"

namespace plt::serve {

namespace {

/// The per-list cooperative check. The "serve.deadline" failpoint
/// simulates the wall clock expiring at exactly this checkpoint, so the
/// typed-DEADLINE contract is testable without timing races.
bool deadline_tripped(const core::MiningControl& control) {
#if PLT_FAILPOINTS_ENABLED
  try {
    PLT_FAILPOINT("serve.deadline");
  } catch (const InjectedFault&) {
    return true;
  }
#endif
  return control.should_stop();
}

Response deadline_response(const Request& request) {
  Response response;
  response.opcode = request.opcode;
  response.request_id = request.request_id;
  response.status = Status::kDeadlineExceeded;
  response.detail = "deadline exceeded mid-query";
  return response;
}

/// Ids per block read from a list: two blocks (4 KB) stay in L1 while the
/// kernel meets them.
constexpr std::size_t kBlock = 512;

/// One rank's list as a source of id blocks, optionally only the ids whose
/// frame holds vectors of `length`. Counts the ids it decodes.
class RankList {
 public:
  RankList(const compress::BlobIndex& index, Rank r, QueryCounters& counters,
           std::uint32_t length = 0,
           std::uint32_t below = compress::BlobIndex::kNoBound)
      : index_(index),
        cursor_(index, r),
        counters_(counters),
        length_(length),
        below_(length == 0 ? below : index.length_end(length)) {}

  /// The next non-empty block of ids, or an empty span at the end.
  std::span<const std::uint32_t> next(std::uint32_t* block) {
    for (;;) {
      std::size_t n = cursor_.next(block, kBlock, below_);
      counters_.entries_tested += n;
      if (n == 0) return {};
      if (length_ != 0) n = index_.keep_length(length_, block, n);
      if (n > 0) return {block, n};
    }
  }

 private:
  const compress::BlobIndex& index_;
  compress::BlobIndex::ListCursor cursor_;
  QueryCounters& counters_;
  std::uint32_t length_;
  std::uint32_t below_;
};

/// Ids already in memory as a source of blocks (no copy).
class KeptIds {
 public:
  explicit KeptIds(std::span<const std::uint32_t> ids) : ids_(ids) {}
  std::span<const std::uint32_t> next(std::uint32_t*) {
    const std::span<const std::uint32_t> block =
        ids_.first(std::min(kBlock, ids_.size()));
    ids_ = ids_.subspan(block.size());
    return block;
  }

 private:
  std::span<const std::uint32_t> ids_;
};

/// The entries that contain every rank taken so far. Lists are read a
/// block at a time and met through the intersect_sorted kernel, so a query
/// holds its result set and two blocks, never a whole list. Each list is a
/// deadline checkpoint; a step that returns false has tripped and left the
/// set partial.
class Witnesses {
 public:
  Witnesses(const compress::BlobIndex& index,
            const core::MiningControl& control, QueryCounters& counters)
      : index_(index), control_(control), counters_(counters) {}

  /// Starts from the entries of `ranks` (non-empty, each <= max_rank),
  /// shortest list first. With `length` non-zero, only entries of that
  /// vector length are kept, filtered on the first list.
  bool take(std::span<const Rank> ranks, std::uint32_t length = 0) {
    std::vector<Rank> order(ranks.begin(), ranks.end());
    std::sort(order.begin(), order.end(), [&](Rank a, Rank b) {
      const std::size_t na = index_.ids_of(a), nb = index_.ids_of(b);
      return na != nb ? na < nb : a < b;
    });
    if (!step()) return false;
    RankList first(index_, order.front(), counters_, length);
    ids_.clear();
    if (order.size() == 1) {
      for (std::span<const std::uint32_t> block = first.next(block_a_);
           !block.empty(); block = first.next(block_a_))
        ids_.insert(ids_.end(), block.begin(), block.end());
      return true;
    }
    if (!step()) return false;
    RankList second(index_, order[1], counters_);
    meet(first, second, ids_);
    for (std::size_t i = 2; i < order.size() && !ids_.empty(); ++i)
      if (!narrow(order[i])) return false;
    return true;
  }

  /// Keeps the entries that also contain rank r (<= max_rank; the set is
  /// not empty). The list is read no further than the set's last id.
  bool narrow(Rank r) {
    if (!step()) return false;
    KeptIds kept(ids_);
    RankList list(index_, r, counters_, 0, ids_.back() + 1);
    meet(kept, list, common_);
    ids_.swap(common_);
    return true;
  }

  /// Σ freq over the entries.
  Count support() const {
    Count total = 0;
    for (const std::uint32_t id : ids_) total += index_.freq[id];
    return total;
  }

  const std::vector<std::uint32_t>& ids() const { return ids_; }

 private:
  /// The checkpoint before each rank list: the deadline, then the count.
  bool step() {
    if (deadline_tripped(control_)) return false;
    ++counters_.buckets_scanned;
    return true;
  }

  /// out = a ∩ b. Each round meets the two blocks up to the smaller of
  /// their last ids, which uses up at least one of them.
  template <typename A, typename B>
  void meet(A& a, B& b, std::vector<std::uint32_t>& out) {
    out.clear();
    std::span<const std::uint32_t> x = a.next(block_a_);
    std::span<const std::uint32_t> y;
    if (!x.empty()) y = b.next(block_b_);
    while (!x.empty() && !y.empty()) {
      const std::uint32_t edge = std::min(x.back(), y.back());
      const auto upto = [edge](std::span<const std::uint32_t> ids) {
        return ids.first(static_cast<std::size_t>(
            std::upper_bound(ids.begin(), ids.end(), edge) - ids.begin()));
      };
      const std::span<const std::uint32_t> xs = upto(x), ys = upto(y);
      const std::size_t at = out.size();
      // The kernel may write 4 values past its output.
      out.resize(at + std::min(xs.size(), ys.size()) + 4);
      out.resize(at + kernels::active().intersect_sorted(
                          xs.data(), xs.size(), ys.data(), ys.size(),
                          out.data() + at));
      obs::count_kernel("kernel.intersect_sorted.calls",
                        "kernel.intersect_sorted.bytes",
                        (xs.size() + ys.size()) * sizeof(std::uint32_t));
      x = x.subspan(xs.size());
      y = y.subspan(ys.size());
      if (x.empty()) x = a.next(block_a_);
      if (y.empty()) y = b.next(block_b_);
    }
  }

  const compress::BlobIndex& index_;
  const core::MiningControl& control_;
  QueryCounters& counters_;
  std::vector<std::uint32_t> ids_, common_;
  std::uint32_t block_a_[kBlock];
  std::uint32_t block_b_[kBlock];
};

/// Support of `ranks` (strictly increasing). Returns false when the
/// control tripped mid-query (support must then not be served).
bool blob_support(const compress::BlobIndex& index,
                  std::span<const Rank> ranks,
                  const core::MiningControl& control, QueryCounters& counters,
                  Count& support) {
  support = 0;
  if (ranks.empty()) {
    support = index.total_freq;
    return true;
  }
  const Rank top = ranks.back();
  if (top > index.max_rank) return true;  // item outside the alphabet
  // Fast path: a singleton's support is the load-time cache.
  if (ranks.size() == 1) {
    support = index.item_support[top - 1];
    return true;
  }
  Witnesses witnesses(index, control, counters);
  if (!witnesses.take(ranks)) return false;
  support = witnesses.support();
  return true;
}

}  // namespace

Response answer_query(const Request& request, const LoadedBlob& blob,
                      const core::MiningControl& control,
                      QueryCounters& counters) {
  PLT_SPAN("serve-query");
  const compress::BlobIndex& index = blob.index;
  Response response;
  response.opcode = request.opcode;
  response.request_id = request.request_id;

  switch (request.opcode) {
    case Opcode::kSupport: {
      if (!blob_support(index, request.ranks, control, counters,
                        response.support))
        return deadline_response(request);
      break;
    }
    case Opcode::kMembership: {
      // Of the entries that contain every rank, those of the itemset's
      // size store exactly it; with repeated vectors the last one in
      // stored order answers.
      if (request.ranks.back() > index.max_rank) break;  // not stored
      Witnesses witnesses(index, control, counters);
      if (!witnesses.take(request.ranks,
                          static_cast<std::uint32_t>(request.ranks.size())))
        return deadline_response(request);
      if (!witnesses.ids().empty()) {
        response.member = true;
        response.support = index.freq[witnesses.ids().back()];
      }
      break;
    }
    case Opcode::kTopK: {
      const std::size_t k = std::min<std::size_t>(
          request.k, blob.ranks_by_support.size());
      response.top.assign(blob.ranks_by_support.begin(),
                          blob.ranks_by_support.begin() +
                              static_cast<std::ptrdiff_t>(k));
      break;
    }
    case Opcode::kRule: {
      // The antecedent's entries narrowed by the consequent's list give
      // support(A ∪ {c}). An empty or one-rank antecedent is a cached read
      // and leaves at most two ranks, so both go down the support path.
      // Confidence is reported in parts-per-million so the wire stays
      // integral.
      const std::span<const Rank> antecedent = request.ranks;
      const Rank consequent = request.consequent;
      if (antecedent.size() < 2) {
        std::vector<Rank> with_consequent(antecedent.begin(),
                                          antecedent.end());
        with_consequent.insert(
            std::upper_bound(with_consequent.begin(), with_consequent.end(),
                             consequent),
            consequent);
        if (!blob_support(index, antecedent, control, counters,
                          response.antecedent_support) ||
            !blob_support(index, with_consequent, control, counters,
                          response.support))
          return deadline_response(request);
      } else if (antecedent.back() <= index.max_rank) {
        Witnesses witnesses(index, control, counters);
        if (!witnesses.take(antecedent)) return deadline_response(request);
        response.antecedent_support = witnesses.support();
        if (consequent <= index.max_rank && !witnesses.ids().empty()) {
          if (!witnesses.narrow(consequent))
            return deadline_response(request);
          response.support = witnesses.support();
        }
      }
      response.confidence_ppm =
          response.antecedent_support == 0
              ? 0
              : response.support * 1000000 / response.antecedent_support;
      break;
    }
    case Opcode::kPing:
    case Opcode::kStats:
    case Opcode::kReload:
      response.status = Status::kInternal;
      response.detail = "opcode is not a blob query";
      break;
  }
  return response;
}

}  // namespace plt::serve
