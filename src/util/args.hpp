// Minimal command-line flag parser for examples and benches.
// Supports --key=value, --key value, and bare --flag booleans.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace plt {

class Args {
 public:
  /// `bool_flags` names the flags that take no value: a bare `--flag` is
  /// "true" and the word after it stays a positional argument, so a tool
  /// that refuses positionals refuses it (`--flag=value` still sets one).
  /// Any other flag followed by a word that is not a flag takes that word.
  Args(int argc, char** argv, std::span<const char* const> bool_flags = {});

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Every flag key that was passed (sorted) — lets strict tools reject
  /// unknown flags instead of silently ignoring typos.
  std::vector<std::string> keys() const;

  /// The first passed flag (in sorted order) that is not in `known`, or
  /// "" when every flag is known.
  std::string first_unknown(std::span<const char* const> known) const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace plt
