#include "util/args.hpp"

#include <cstdlib>

#include "util/common.hpp"

namespace plt {

Args::Args(int argc, char** argv, std::span<const char* const> bool_flags) {
  program_ = argc > 0 ? argv[0] : "";
  const auto is_bool = [&](const std::string& key) {
    for (const char* flag : bool_flags)
      if (key == flag) return true;
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (!is_bool(arg) && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Args::has(const std::string& key) const { return flags_.count(key) > 0; }

std::vector<std::string> Args::keys() const {
  std::vector<std::string> keys;
  keys.reserve(flags_.size());
  for (const auto& [key, value] : flags_) keys.push_back(key);
  return keys;
}

std::string Args::first_unknown(std::span<const char* const> known) const {
  for (const auto& [key, value] : flags_) {
    bool listed = false;
    for (const char* flag : known) listed = listed || key == flag;
    if (!listed) return key;
  }
  return "";
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : std::strtoll(it->second.c_str(),
                                                      nullptr, 10);
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback
                            : std::strtod(it->second.c_str(), nullptr);
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace plt
