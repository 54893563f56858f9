// Rendering of sweep results: one aligned table per experiment plus an
// optional CSV block, in the style of FIMI-era evaluation sections.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace plt::harness {

/// Prints a banner + the per-cell table for an experiment.
void print_sweep(std::ostream& os, const std::string& title,
                 const std::vector<Cell>& cells, bool csv = false);

/// Prints an experiment banner (id, title, paper anchor).
void print_banner(std::ostream& os, const std::string& experiment_id,
                  const std::string& title, const std::string& paper_anchor);

/// Per-support "who wins" summary: fastest algorithm per support level.
void print_winners(std::ostream& os, const std::vector<Cell>& cells);

/// The host a BENCH_*.json was measured on, as a JSON object: online CPU
/// count, the "model name" of /proc/cpuinfo ("unknown" without one) and
/// the dispatched kernel backend.
std::string host_json();

}  // namespace plt::harness
