// Query execution over one loaded blob: the serving counterpart of
// core::support_of, driven by the BlobIndex's per-rank entry-id lists.
//
// The entries that contain an itemset are the intersection of its ranks'
// lists, so support is the frequency-weighted intersection, taken shortest
// list first through the intersect_sorted kernel. A rule narrows its
// antecedent's intersection by the consequent's list. Membership (an exact
// stored vector) keeps only the intersected entries whose frame holds
// vectors of the itemset's size: an entry of k positions that contains k
// given ranks is exactly those ranks. A singleton's support is the
// load-time per-rank cache.
//
// Every list decode is a MiningControl checkpoint: a per-request deadline
// that trips mid-query aborts it with the typed DEADLINE_EXCEEDED status —
// never a silent drop. The "serve.deadline" failpoint forces that trip
// deterministically so tests can pin the contract without racing a clock.
#pragma once

#include "core/exec_control.hpp"
#include "serve/blob_store.hpp"
#include "serve/protocol.hpp"

namespace plt::serve {

/// Monotonic per-request-class tallies, kept by the caller (the server
/// aggregates per worker; tests pass a scratch instance).
struct QueryCounters {
  /// Rank lists decoded (one per list intersected).
  std::uint64_t buckets_scanned = 0;
  /// Entry ids decoded from those lists.
  std::uint64_t entries_tested = 0;
};

/// Answers one already-validated request against one loaded blob. The
/// response carries the request's id/opcode; `status` is kOk,
/// kDeadlineExceeded, or kMalformedBody (semantic rejections that only the
/// engine can see, e.g. a top-k of zero is fine but a rule whose
/// antecedent support is zero still answers with confidence 0).
/// kStats/kReload/kPing are server-level opcodes the engine rejects with
/// kInternal — routing them here is a server bug.
Response answer_query(const Request& request, const LoadedBlob& blob,
                      const core::MiningControl& control,
                      QueryCounters& counters);

}  // namespace plt::serve
