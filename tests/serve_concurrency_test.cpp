// Concurrency suite for plt-serve (runs under TSan via the `threaded`
// label): N client threads firing every request class at a multi-worker
// daemon must get byte-for-byte the answers a single sequential client
// gets, hot swaps must never produce a wrong or dropped answer, the
// admission-control path must reject with the typed OVERLOADED status
// rather than queueing silently, and the merged trace tree recorded across
// all worker threads must stay well-formed with only registered names. A
// reload that fails under traffic must leave the current blobs serving.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <thread>

#include "core/subset_check.hpp"
#include "obs/span_names.hpp"
#include "obs/trace.hpp"
#include "serve_test_support.hpp"

namespace plt::serve {
namespace {

using plt::testing::TestServer;
using plt::testing::write_table1_blob;

/// One expected exchange: the request plus the full response a sequential
/// client observed (compared field-by-field after the concurrent run).
struct Exchange {
  Request request;
  Response expected;
};

std::vector<Request> workload(std::uint16_t blob_id) {
  std::vector<Request> requests;
  auto add = [&](Opcode opcode, std::vector<Rank> ranks, Rank consequent = 0,
                 std::uint32_t k = 0) {
    Request request;
    request.opcode = opcode;
    request.blob_id = blob_id;
    request.ranks = std::move(ranks);
    request.consequent = consequent;
    request.k = k;
    requests.push_back(std::move(request));
  };
  // Every non-empty subset of ranks 1..4 as support and membership queries.
  for (std::uint32_t mask = 1; mask < 16; ++mask) {
    std::vector<Rank> ranks;
    for (Rank rank = 1; rank <= 4; ++rank)
      if ((mask >> (rank - 1)) & 1u) ranks.push_back(rank);
    add(Opcode::kSupport, ranks);
    add(Opcode::kMembership, ranks);
  }
  add(Opcode::kSupport, {});  // empty set: all transactions
  for (std::uint32_t k : {0u, 1u, 3u, 100u}) add(Opcode::kTopK, {}, 0, k);
  add(Opcode::kRule, {1}, 2);
  add(Opcode::kRule, {1, 2}, 3);
  add(Opcode::kRule, {}, 4);
  add(Opcode::kSupport, {9});  // rank outside the alphabet: support 0
  add(Opcode::kPing, {});
  return requests;
}

void expect_same_response(const Response& actual, const Exchange& exchange,
                          const char* context) {
  EXPECT_EQ(actual.status, exchange.expected.status) << context;
  EXPECT_EQ(actual.support, exchange.expected.support) << context;
  EXPECT_EQ(actual.antecedent_support, exchange.expected.antecedent_support)
      << context;
  EXPECT_EQ(actual.confidence_ppm, exchange.expected.confidence_ppm)
      << context;
  EXPECT_EQ(actual.member, exchange.expected.member) << context;
  ASSERT_EQ(actual.top.size(), exchange.expected.top.size()) << context;
  for (std::size_t i = 0; i < actual.top.size(); ++i) {
    EXPECT_EQ(actual.top[i].rank, exchange.expected.top[i].rank) << context;
    EXPECT_EQ(actual.top[i].support, exchange.expected.top[i].support)
        << context;
  }
}

TEST(ServeConcurrency, ParallelClientsMatchSequentialAnswers) {
  obs::TraceSession session;
  const core::BuiltPlt reference =
      core::build_from_database(plt::testing::paper_table1(), 2);
  std::vector<Exchange> exchanges;
  std::uint64_t total = 0;  // requests the server's stats snapshot counted
  {
    TestServer server(
        {write_table1_blob(2, "conc_minsup2.plt"),
         write_table1_blob(3, "conc_minsup3.plt")},
        /*threads=*/2);

    // Sequential pass: one client records the ground-truth responses.
    {
      QueryClient client(server.port());
      std::uint32_t next_id = 1;
      for (std::uint16_t blob_id = 0; blob_id < 2; ++blob_id) {
        for (Request request : workload(blob_id)) {
          request.request_id = next_id++;
          const auto response = client.call(request);
          ASSERT_TRUE(response.has_value());
          exchanges.push_back({request, *response});
        }
      }
    }

    // Independent reference: the blob's support answers must equal the
    // in-memory PLT scan for the same ranks.
    for (const Exchange& exchange : exchanges) {
      if (exchange.request.opcode != Opcode::kSupport ||
          exchange.request.blob_id != 0)
        continue;
      EXPECT_EQ(exchange.expected.support,
                core::support_of(reference.plt, exchange.request.ranks));
    }

    // Concurrent pass: 4 threads, each shuffling the full workload with its
    // own seed and checking every response against the sequential truth.
    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        std::mt19937 rng(1234u + static_cast<unsigned>(t));
        QueryClient client(server.port());
        std::vector<std::size_t> order(exchanges.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        for (int round = 0; round < kRounds; ++round) {
          std::shuffle(order.begin(), order.end(), rng);
          for (const std::size_t index : order) {
            Request request = exchanges[index].request;
            // Unique id per in-flight call; correlation is by id.
            request.request_id =
                static_cast<std::uint32_t>(1000000 + t * 100000 +
                                           round * 10000 + index);
            const auto response = client.call(request);
            ASSERT_TRUE(response.has_value());
            EXPECT_EQ(response->request_id, request.request_id);
            expect_same_response(*response, exchanges[index], "concurrent");
          }
        }
      });
    }
    for (std::thread& thread : clients) thread.join();

    const StatsSnapshot stats = server.server().stats();
    for (const auto& per_class : stats.per_class) total += per_class.requests;
    EXPECT_EQ(total, exchanges.size() * (1 + kThreads * kRounds));
    EXPECT_EQ(stats.protocol_errors, 0u);
  }  // server stopped: all worker threads joined, safe to aggregate

  const std::shared_ptr<const obs::TraceNode> tree = session.finish();
  ASSERT_NE(tree, nullptr);
#if PLT_OBS_ENABLED
  // Merged across acceptor + 2 workers + 4 client threads, the trace must
  // stay well-formed and use only registered names.
  const obs::TraceHealth health = session.health();
  EXPECT_EQ(health.unbalanced_exits, 0u);
  EXPECT_EQ(health.open_spans, 0u);
  const std::function<void(const obs::TraceNode&, bool)> check =
      [&](const obs::TraceNode& node, bool is_root) {
        if (!is_root)
          EXPECT_TRUE(obs::names::is_registered_span_name(node.name))
              << node.name;
        for (const auto& [counter, value] : node.counters)
          EXPECT_TRUE(obs::names::is_registered_counter_name(counter))
              << counter;
        EXPECT_TRUE(std::is_sorted(
            node.children.begin(), node.children.end(),
            [](const obs::TraceNode& a, const obs::TraceNode& b) {
              return a.name < b.name;
            }));
        for (const obs::TraceNode& child : node.children) check(child, false);
      };
  check(*tree, true);
  // One serve-request span per request the stats snapshot counted.
  const obs::TraceNode* request_span = tree->child("serve-request");
  ASSERT_NE(request_span, nullptr);
  EXPECT_EQ(request_span->count, total);
#endif
}

TEST(ServeConcurrency, HotSwapUnderTrafficNeverDropsOrCorrupts) {
  TestServer server({write_table1_blob(2, "swap_table1.plt")},
                    /*threads=*/2);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 3; ++t) {
    hammers.emplace_back([&] {
      QueryClient client(server.port());
      while (!done.load(std::memory_order_acquire)) {
        // Answers must be identical across generations (same blob paths).
        ASSERT_EQ(client.support(0, std::vector<Rank>{1, 2}), 4u);
        ASSERT_EQ(client.support(0, std::vector<Rank>{2, 3}), 4u);  // {B,C}
        answered.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }
  std::uint32_t generation = 1;
  for (int i = 0; i < 5; ++i) {
    generation = server.server().reload();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thread : hammers) thread.join();
  EXPECT_EQ(generation, 6u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(server.server().stats().generation, 6u);
}

// A reload whose file cannot load, under traffic: the served file is
// replaced by a CRC-broken copy, then removed. Each admin reload gets a
// typed error, the generation stays 1 and keeps answering correctly, and
// once the good file is back the next reload is generation 2.
TEST(ServeConcurrency, FailedReloadUnderTrafficKeepsServing) {
  const std::string path = write_table1_blob(2, "failed_reload.plt");
  const std::vector<std::uint8_t> good = compress::read_blob_file(path);
  const core::BuiltPlt reference =
      core::build_from_database(plt::testing::paper_table1(), 2);
  TestServer server({path}, /*threads=*/2);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 3; ++t) {
    hammers.emplace_back([&] {
      QueryClient client(server.port());
      const std::vector<Rank> queries[] = {{1}, {1, 2}, {2, 3}, {1, 2, 4}};
      while (!done.load(std::memory_order_acquire)) {
        for (const std::vector<Rank>& ranks : queries) {
          ASSERT_EQ(client.support(0, ranks),
                    core::support_of(reference.plt, ranks));
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Reloads go through call(), which returns non-OK responses instead of
  // throwing, so the hammers are always joined.
  QueryClient admin(server.port());
  std::uint32_t next_id = 1;
  const auto reload = [&] {
    Request request;
    request.opcode = Opcode::kReload;
    request.request_id = next_id++;
    return admin.call(request);
  };
  const auto expect_reload_fails = [&](const char* why) {
    const auto response = reload();
    ASSERT_TRUE(response.has_value()) << why;
    EXPECT_NE(response->status, Status::kOk) << why;
    EXPECT_EQ(response->detail.rfind("reload failed", 0), 0u)
        << why << ": " << response->detail;
    EXPECT_EQ(server.server().stats().generation, 1u) << why;
  };
  std::vector<std::uint8_t> corrupt = good;
  corrupt.back() ^= 0xFF;  // the last frame's CRC
  compress::write_blob_file(corrupt, path);
  expect_reload_fails("CRC-broken file");
  std::filesystem::remove(path);
  expect_reload_fails("missing file");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  compress::write_blob_file(good, path);
  const auto restored = reload();
  done.store(true, std::memory_order_release);
  for (std::thread& thread : hammers) thread.join();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->status, Status::kOk);
  EXPECT_EQ(restored->generation, 2u);
  EXPECT_GT(answered.load(), 0u);
  std::filesystem::remove(path);
}

TEST(ServeConcurrency, BudgetExhaustionRejectsTypedNeverSilently) {
  ServerOptions options;
  options.blob_paths = {write_table1_blob(2, "budget_table1.plt")};
  options.threads = 1;
  options.memory_budget = 1;  // first queued response exhausts it
  TestServer server(std::move(options));

  QueryClient client(server.port());
  constexpr std::uint32_t kBurst = 32;
  std::vector<std::uint8_t> burst;
  for (std::uint32_t id = 1; id <= kBurst; ++id) {
    Request request;
    request.opcode = Opcode::kSupport;
    request.request_id = id;
    request.ranks = {1, 2};
    const auto frame = encode_request(request);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  client.send_raw(burst);
  std::uint32_t ok = 0, overloaded = 0;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << "response " << i << " dropped";
    if (response->status == Status::kOk) {
      EXPECT_EQ(response->support, 4u);
      ++ok;
    } else {
      EXPECT_EQ(response->status, Status::kOverloaded);
      ++overloaded;
    }
  }
  // Every request in the burst got exactly one typed answer.
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GE(ok, 1u);
  EXPECT_GE(overloaded, 1u);
  EXPECT_EQ(server.server().stats().overloaded, overloaded);

  // The budget frees as responses drain: a fresh request succeeds.
  EXPECT_EQ(client.support(0, std::vector<Rank>{1, 2}), 4u);
}

TEST(ServeConcurrency, BatchingGroupsSameBucketRequests) {
  TestServer server({write_table1_blob(2, "batch_table1.plt")});
  QueryClient client(server.port());
  // 16 pipelined queries over only two distinct itemsets arrive in one
  // tick and run in arrival order against the tick's pinned snapshot: each
  // id gets the support of its own itemset.
  std::vector<std::uint8_t> burst;
  for (std::uint32_t id = 1; id <= 16; ++id) {
    Request request;
    request.opcode = Opcode::kSupport;
    request.request_id = id;
    request.ranks = id % 2 == 0 ? std::vector<Rank>{1, 2}
                                : std::vector<Rank>{3, 4};
    const auto frame = encode_request(request);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  client.send_raw(burst);
  for (int i = 0; i < 16; ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::kOk);
    EXPECT_EQ(response->support, response->request_id % 2 == 0 ? 4u : 3u);
  }
  const StatsSnapshot stats = server.server().stats();
  // Each request of the burst was answered exactly once, none in error.
  const auto& support = stats.per_class[static_cast<std::size_t>(
      Opcode::kSupport)];
  EXPECT_EQ(support.requests, 16u);
  EXPECT_EQ(support.errors, 0u);
}

}  // namespace
}  // namespace plt::serve
