// plt-query — one-shot client for a running plt-serve daemon.
//
//   plt-query --port N --op support|membership|topk|rule|ping|stats|reload
//             [--blob ID] [--ranks "1 2 3"] [--consequent R] [--k K]
//             [--deadline-ms D]
//
// Queries are in rank space (the blob stores position vectors over ranks;
// the item map belongs to the run that produced the blob). Prints the
// typed answer to stdout; any server error status or transport failure is
// a non-zero exit with the diagnostic on stderr. An unknown flag, any
// positional argument (an unquoted `--ranks 1 2` leaves `2` as one), a
// --ranks word that is not a rank, and an integer flag whose value is not
// an integer in its field's range (`--k three`, `--blob 0x`, `--port
// 70000`) are usage errors (exit 2), checked before connecting.
#include <charconv>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>

#include "serve/client.hpp"
#include "util/args.hpp"

namespace {

using namespace plt;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " --port N --op OP [--blob ID]\n"
            << "  [--ranks \"1 2 3\"] [--consequent R] [--k K]\n"
            << "  [--deadline-ms D]\n"
            << "ops: support membership topk rule ping stats reload\n";
  return 2;
}

const char* const kKnownFlags[] = {"port", "op",          "blob", "ranks",
                                   "k",    "consequent",  "deadline-ms"};

/// `text` parsed in full as a T, or nothing when it is not a T's value.
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// The ranks of a --ranks value, or nothing when a word is not a rank.
std::optional<std::vector<Rank>> parse_ranks(const std::string& text) {
  std::vector<Rank> ranks;
  std::istringstream in(text);
  for (std::string word; in >> word;) {
    const std::optional<Rank> rank = parse_whole<Rank>(word);
    if (!rank) return std::nullopt;
    ranks.push_back(*rank);
  }
  return ranks;
}

/// The value of integer flag `key` in the range of its field T, or
/// `fallback` when the flag is absent. A value that is not such an
/// integer is reported on stderr and clears `ok`.
template <typename T>
T integer_flag(const Args& args, const char* key, T fallback, bool& ok) {
  if (!args.has(key)) return fallback;
  const std::optional<T> value = parse_whole<T>(args.get(key, ""));
  if (value) return *value;
  std::cerr << "error: --" << key << " takes an integer from 0 to "
            << std::numeric_limits<T>::max() << '\n';
  ok = false;
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (const std::string key = args.first_unknown(kKnownFlags);
      !key.empty()) {
    std::cerr << "error: unknown flag --" << key << '\n';
    return usage(argv[0]);
  }
  if (!args.positional().empty()) {
    std::cerr << "error: unexpected argument " << args.positional().front()
              << '\n';
    return usage(argv[0]);
  }
  if (!args.has("port") || !args.has("op")) return usage(argv[0]);
  const std::optional<std::vector<Rank>> parsed =
      parse_ranks(args.get("ranks", ""));
  if (!parsed) {
    std::cerr << "error: --ranks takes ranks separated by spaces\n";
    return usage(argv[0]);
  }
  const std::vector<Rank>& ranks = *parsed;

  bool ok = true;
  const auto port = integer_flag<std::uint16_t>(args, "port", 0, ok);
  const auto blob_id = integer_flag<std::uint16_t>(args, "blob", 0, ok);
  const auto k = integer_flag<std::uint32_t>(args, "k", 10, ok);
  const auto consequent = integer_flag<Rank>(args, "consequent", 0, ok);
  const auto deadline_ms =
      integer_flag<std::uint32_t>(args, "deadline-ms", 0, ok);
  if (!ok) return usage(argv[0]);
  const std::string op = args.get("op", "");

  try {
    serve::QueryClient client(port);
    if (op == "support") {
      std::cout << client.support(blob_id, ranks, deadline_ms) << '\n';
    } else if (op == "membership") {
      if (ranks.empty()) return usage(argv[0]);
      const serve::Response response = client.membership(blob_id, ranks);
      std::cout << (response.member ? "member" : "absent") << ' '
                << response.support << '\n';
    } else if (op == "topk") {
      const auto top = client.top_k(blob_id, k);
      for (const serve::TopEntry& entry : top)
        std::cout << entry.rank << ' ' << entry.support << '\n';
    } else if (op == "rule") {
      if (consequent == 0) return usage(argv[0]);
      const serve::Response response =
          client.rule(blob_id, ranks, consequent);
      std::cout << "support " << response.support << " antecedent "
                << response.antecedent_support << " confidence_ppm "
                << response.confidence_ppm << '\n';
    } else if (op == "ping") {
      if (!client.ping()) {
        std::cerr << "error: no pong\n";
        return 1;
      }
      std::cout << "pong\n";
    } else if (op == "stats") {
      std::cout << client.stats().detail << '\n';
    } else if (op == "reload") {
      std::cout << "generation " << client.reload().generation << '\n';
    } else {
      std::cerr << "error: unknown op " << op << '\n';
      return usage(argv[0]);
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
