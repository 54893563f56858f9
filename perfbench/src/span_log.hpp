// The traced run's own spans: one record per call the benchmark makes into
// a layer (name, start, end, parent, request id), kept in memory and
// written out as JSON when the run ends. Durations of the program's own
// spans come separately, from the obs::TraceSession wrapped around each
// mining call.
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class SpanLog {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t request_id = -1;
  };

  int open(std::string name) {
    records_.push_back({std::move(name), now_ns(), 0, top(), -1});
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    records_[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }
  /// Adds a finished span under the innermost open one.
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t request_id) {
    records_.push_back({std::move(name), start_ns, end_ns, top(), request_id});
  }
  double seconds(int index) const {
    const Record& r = records_[static_cast<std::size_t>(index)];
    return static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  }
  /// Summed duration of the direct children of `index` (seconds), or of
  /// those called `name` when it is given.
  double child_seconds(int index, const std::string& name = "") const {
    double total = 0.0;
    for (const Record& r : records_)
      if (r.parent == index && (name.empty() || r.name == name))
        total += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    return total;
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
    out << "{\"format\": \"perfbench-spans-v1\", \"spans\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "  {\"id\": " << i << ", \"name\": " << json_string(r.name)
          << ", \"start_ns\": " << r.start_ns - origin
          << ", \"end_ns\": " << r.end_ns - origin << ", \"parent\": " << r.parent;
      if (r.request_id >= 0) out << ", \"request_id\": " << r.request_id;
      out << (i + 1 < records_.size() ? "},\n" : "}\n");
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write span log " + path);
  }

 private:
  int top() const { return stack_.empty() ? -1 : stack_.back(); }
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// RAII span; does nothing when the log is null (the untraced run).
class Scope {
 public:
  Scope(SpanLog* log, std::string name) : log_(log) {
    if (log_ != nullptr) index_ = log_->open(std::move(name));
  }
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void close() {
    if (log_ != nullptr && !closed_) log_->close(index_);
    closed_ = true;
  }
  int index() const { return index_; }

 private:
  SpanLog* log_ = nullptr;
  int index_ = -1;
  bool closed_ = false;
};

}  // namespace perfbench
