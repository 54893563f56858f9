// Shared --trace / --trace-folded flags for the CLI and every bench
// binary: either flag opens one TraceSession on the main thread around the
// whole run, so every mine() call the main thread makes, and every thread
// mine_parallel or serve::Server starts for it, feeds a single combined
// tree. Without either flag nothing is recorded. The JSON export carries the active
// kernel backend as metadata; the folded export feeds flamegraph tooling
// directly.
#pragma once

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"

namespace plt::harness {

/// Owns the run-wide trace session requested by `--trace FILE` (JSON
/// export) and/or `--trace-folded FILE` (collapsed stacks). Inactive — and
/// free — when neither flag is present. write() (or the destructor)
/// finishes the session and writes the requested files.
class TraceScope {
 public:
  explicit TraceScope(const Args& args)
      : json_path_(args.get("trace", "")),
        folded_path_(args.get("trace-folded", "")) {
    if (active()) session_.emplace();
  }

  ~TraceScope() { write(); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  bool active() const {
    return !json_path_.empty() || !folded_path_.empty();
  }

  /// Finishes the session and writes the files; idempotent. Returns false
  /// (after a diagnostic on stderr) if any file could not be written.
  bool write() {
    if (!session_) return true;
    root_ = session_->finish();
    session_.reset();
    bool ok = true;
    if (!json_path_.empty()) {
      obs::TraceExportOptions options;
      options.backend = kernels::active().name;
      ok &= write_file(json_path_, obs::to_json(*root_, options));
    }
    if (!folded_path_.empty())
      ok &= write_file(folded_path_, obs::to_folded(*root_));
    return ok;
  }

  /// The aggregated tree; null until write() has run (or when inactive).
  const std::shared_ptr<const obs::TraceNode>& root() const { return root_; }

 private:
  static bool write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    out.flush();
    if (!out) {
      std::cerr << "error: cannot write trace file " << path << '\n';
      return false;
    }
    return true;
  }

  std::string json_path_;
  std::string folded_path_;
  std::optional<obs::TraceSession> session_;
  std::shared_ptr<const obs::TraceNode> root_;
};

/// Compact single-line summary of a trace for embedding into a bench
/// run's JSON report: total span count plus the top-level phase spans with
/// their counts and durations. Not the full tree — benches point at
/// --trace for that.
inline std::string trace_summary_json(const obs::TraceNode& root) {
  std::ostringstream out;
  out << "{\"backend\": \"" << kernels::active().name
      << "\", \"spans\": " << root.span_total() << ", \"phases\": {";
  bool first = true;
  for (const obs::TraceNode& child : root.children) {
    if (!first) out << ", ";
    first = false;
    out << '"' << child.name << "\": {\"count\": " << child.count
        << ", \"ns\": " << child.total_ns << '}';
  }
  out << "}}";
  return out.str();
}

}  // namespace plt::harness
