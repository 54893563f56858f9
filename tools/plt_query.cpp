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
// positional argument (an unquoted `--ranks 1 2` leaves `2` as one) and a
// --ranks word that is not a rank are usage errors (exit 2), checked
// before connecting.
#include <charconv>
#include <iostream>
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

/// The ranks of a --ranks value, or nothing when a word is not a rank.
std::optional<std::vector<Rank>> parse_ranks(const std::string& text) {
  std::vector<Rank> ranks;
  std::istringstream in(text);
  for (std::string word; in >> word;) {
    Rank rank = 0;
    const char* end = word.data() + word.size();
    const auto [stop, error] = std::from_chars(word.data(), end, rank);
    if (error != std::errc() || stop != end) return std::nullopt;
    ranks.push_back(rank);
  }
  return ranks;
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

  const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
  const auto blob_id = static_cast<std::uint16_t>(args.get_int("blob", 0));
  const auto deadline_ms =
      static_cast<std::uint32_t>(args.get_int("deadline-ms", 0));
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
      const auto top = client.top_k(
          blob_id, static_cast<std::uint32_t>(args.get_int("k", 10)));
      for (const serve::TopEntry& entry : top)
        std::cout << entry.rank << ' ' << entry.support << '\n';
    } else if (op == "rule") {
      const auto consequent =
          static_cast<Rank>(args.get_int("consequent", 0));
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
