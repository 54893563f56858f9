// Central registry of every span and counter name the tracing layer may
// emit (S23 determinism rule #1: names are stable literals; S24 makes the
// rule machine-checked). tools/plt_lint's span-registry rule parses this
// file and rejects any PLT_SPAN / PLT_TRACE_COUNT / obs::count_kernel site
// whose name literal is missing here, so adding a span means adding one
// line below — which is exactly the review point where golden traces get
// updated.
//
// Keep each array sorted; is_registered_span_name is used by tests to
// assert exported traces only contain registered names.
#pragma once

#include <algorithm>
#include <string_view>

namespace plt::obs::names {

/// Phase spans (PLT_SPAN sites).
inline constexpr std::string_view kSpans[] = {
    "build-partitions",
    "build-plt",
    "build-ranked-view",
    "checkpoint",
    "codec-decode",
    "codec-encode",
    "emit",
    "expand",
    "merge",
    "mine",
    "mine-parallel",
    "mine-rank",
    "ooc-mine",
    "ooc-resume",
    "projection",
    "rank-loop",
    "serve-load-blob",
    "serve-query",
    "serve-request",
    "shard-launch",
    "shard-merge",
    "shard-mine",
    "shard-split",
    "shard-wait",
};

/// Monotonic counters (PLT_TRACE_COUNT and obs::count_kernel sites). The
/// status.* family is emitted through status_counter_name(), which maps
/// every MineStatus onto one of these literals.
inline constexpr std::string_view kCounters[] = {
    "entries-projected",
    "expanded-vectors",
    "itemsets-emitted",
    "itemsets-total",
    "kernel.intersect_count.bytes",
    "kernel.intersect_count.calls",
    "kernel.intersect_sorted.bytes",
    "kernel.intersect_sorted.calls",
    "partitions",
    "plan.subtree.eclat",
    "plan.subtree.pooled",
    "ranks",
    "ranks-processed",
    "resumed-ranks",
    "shard.attempts",
    "shard.itemsets",
    "shard.relaunches",
    "shard.workers",
    "status.budget-exceeded",
    "status.cancelled",
    "status.completed",
    "status.deadline-exceeded",
    "status.unknown",
    "transactions",
    "vectors-inserted",
};

constexpr bool is_registered_span_name(std::string_view name) {
  for (const std::string_view s : kSpans)
    if (s == name) return true;
  return false;
}

constexpr bool is_registered_counter_name(std::string_view name) {
  for (const std::string_view c : kCounters)
    if (c == name) return true;
  return false;
}

}  // namespace plt::obs::names
