// Protocol-fuzz suite for plt-serve (DESIGN.md S27): unit coverage of the
// frame codec plus adversarial wire-level tests against a live in-process
// daemon — truncated frames, oversized lengths, bad magic/version,
// mid-request disconnects and slow-loris partial writes must produce typed
// errors or clean closes, never a crash. Failpoint-injected short
// reads/writes exercise the resumption paths, the "serve.deadline"
// failpoint pins the typed-DEADLINE contract deterministically, and the
// "serve.accept" failpoint the typed answer to descriptor exhaustion. A
// served file rewritten in place must not change an answer.
#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <cstdio>
#include <random>
#include <thread>

#include "compress/codec.hpp"
#include "core/subset_check.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve_test_support.hpp"
#include "util/failpoint.hpp"

namespace plt::serve {
namespace {

using plt::testing::TestServer;
using plt::testing::write_table1_blob;

Request support_request(std::vector<Rank> ranks, std::uint32_t id = 7,
                        std::uint32_t deadline_ms = 0) {
  Request request;
  request.opcode = Opcode::kSupport;
  request.request_id = id;
  request.deadline_ms = deadline_ms;
  request.ranks = std::move(ranks);
  return request;
}

Status decode_frame(const std::vector<std::uint8_t>& frame, Request& out) {
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  EXPECT_EQ(try_frame(frame, kDefaultMaxFrame, payload, consumed),
            FrameResult::kFrame);
  EXPECT_EQ(consumed, frame.size());
  return decode_request(payload, out);
}

// ---- pure codec tests ----

TEST(ServeProtocol, RequestRoundTripEveryOpcode) {
  for (std::uint8_t op = 0; op < kOpcodeCount; ++op) {
    Request request;
    request.opcode = static_cast<Opcode>(op);
    request.blob_id = 3;
    request.request_id = 0xDEADBEEF;
    request.deadline_ms = 250;
    if (request.opcode == Opcode::kSupport ||
        request.opcode == Opcode::kMembership ||
        request.opcode == Opcode::kRule)
      request.ranks = {1, 4, 9};
    if (request.opcode == Opcode::kRule) request.consequent = 12;
    if (request.opcode == Opcode::kTopK) request.k = 17;

    Request decoded;
    ASSERT_EQ(decode_frame(encode_request(request), decoded), Status::kOk)
        << "opcode " << int{op};
    EXPECT_EQ(decoded.opcode, request.opcode);
    EXPECT_EQ(decoded.blob_id, request.blob_id);
    EXPECT_EQ(decoded.request_id, request.request_id);
    EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
    if (request.opcode == Opcode::kSupport ||
        request.opcode == Opcode::kMembership ||
        request.opcode == Opcode::kRule)
      EXPECT_EQ(decoded.ranks, request.ranks);
    EXPECT_EQ(decoded.consequent, request.consequent);
    EXPECT_EQ(decoded.k, request.k);
  }
}

TEST(ServeProtocol, ResponseRoundTrip) {
  Response response;
  response.opcode = Opcode::kRule;
  response.request_id = 42;
  response.support = 4;
  response.antecedent_support = 5;
  response.confidence_ppm = 800000;
  const auto frame = encode_response(response);
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(try_frame(frame, kDefaultMaxFrame, payload, consumed),
            FrameResult::kFrame);
  Response decoded;
  ASSERT_TRUE(decode_response(payload, decoded));
  EXPECT_EQ(decoded.support, 4u);
  EXPECT_EQ(decoded.antecedent_support, 5u);
  EXPECT_EQ(decoded.confidence_ppm, 800000u);

  Response error;
  error.opcode = Opcode::kSupport;
  error.request_id = 9;
  error.status = Status::kUnknownBlob;
  error.detail = "blob_id not loaded";
  const auto error_frame = encode_response(error);
  ASSERT_EQ(try_frame(error_frame, kDefaultMaxFrame, payload, consumed),
            FrameResult::kFrame);
  ASSERT_TRUE(decode_response(payload, decoded));
  EXPECT_EQ(decoded.status, Status::kUnknownBlob);
  EXPECT_EQ(decoded.detail, "blob_id not loaded");
}

TEST(ServeProtocol, TryFrameNeedsEveryPrefixByte) {
  const auto frame = encode_request(support_request({2, 3}));
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(try_frame(std::span(frame).first(n), kDefaultMaxFrame, payload,
                        consumed),
              FrameResult::kNeedMore)
        << "prefix of " << n << " bytes";
  }
  EXPECT_EQ(try_frame(frame, kDefaultMaxFrame, payload, consumed),
            FrameResult::kFrame);
}

TEST(ServeProtocol, TryFrameRejectsOversizedLength) {
  std::vector<std::uint8_t> frame = {0xFF, 0xFF, 0xFF, 0x7F};  // ~2 GiB
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  EXPECT_EQ(try_frame(frame, kDefaultMaxFrame, payload, consumed),
            FrameResult::kTooLarge);
}

TEST(ServeProtocol, DecodeRequestTypedErrors) {
  Request out;
  // Bad magic.
  auto frame = encode_request(support_request({1}));
  frame[4] = 'X';
  EXPECT_EQ(decode_frame(frame, out), Status::kBadMagic);
  // Bad version.
  frame = encode_request(support_request({1}));
  frame[4 + 4] = 99;
  EXPECT_EQ(decode_frame(frame, out), Status::kBadVersion);
  // Bad opcode.
  frame = encode_request(support_request({1}));
  frame[4 + 5] = 99;
  EXPECT_EQ(decode_frame(frame, out), Status::kBadOpcode);
  // Truncated body: itemset declares 3 ranks but carries 1.
  frame = encode_request(support_request({1}));
  frame[4 + 16] = 3;  // count lives right after the 16-byte header
  EXPECT_EQ(decode_frame(frame, out), Status::kMalformedBody);
  // Non-increasing ranks.
  {
    Request bad = support_request({1, 2});
    auto encoded = encode_request(bad);
    // Overwrite the second rank (offset 4+16+2+4) with the first's value.
    for (int i = 0; i < 4; ++i)
      encoded[4 + 16 + 2 + 4 + static_cast<std::size_t>(i)] =
          encoded[4 + 16 + 2 + static_cast<std::size_t>(i)];
    EXPECT_EQ(decode_frame(encoded, out), Status::kMalformedBody);
  }
  // Trailing garbage after a complete body.
  frame = encode_request(support_request({1}));
  frame.push_back(0xAB);
  frame[0] = static_cast<std::uint8_t>(frame.size() - 4);  // fix length
  EXPECT_EQ(decode_frame(frame, out), Status::kMalformedBody);
  // Membership with an empty itemset.
  {
    Request membership;
    membership.opcode = Opcode::kMembership;
    EXPECT_EQ(decode_frame(encode_request(membership), out),
              Status::kMalformedBody);
  }
  // Rule whose consequent repeats an antecedent item.
  {
    Request rule;
    rule.opcode = Opcode::kRule;
    rule.ranks = {2, 5};
    rule.consequent = 5;
    EXPECT_EQ(decode_frame(encode_request(rule), out),
              Status::kMalformedBody);
  }
}

// ---- live-daemon tests ----

class ServeWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::instance().disarm_all();
    blob_path_ = write_table1_blob(2, "wire_table1.plt");
    server_ = std::make_unique<TestServer>(
        std::vector<std::string>{blob_path_});
  }
  void TearDown() override { FailpointRegistry::instance().disarm_all(); }

  std::uint16_t port() const { return server_->port(); }

  std::string blob_path_;
  std::unique_ptr<TestServer> server_;
};

TEST_F(ServeWireTest, BadMagicGetsTypedErrorThenClose) {
  QueryClient client(port());
  auto frame = encode_request(support_request({1}));
  frame[4] = 'Z';
  client.send_raw(frame);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kBadMagic);
  // Stream integrity is gone: the server closes after the diagnostic.
  EXPECT_FALSE(client.read_response().has_value());
  // And the daemon is still alive for new connections.
  QueryClient probe(port());
  EXPECT_TRUE(probe.ping());
}

TEST_F(ServeWireTest, OversizedLengthGetsTypedErrorThenClose) {
  QueryClient client(port());
  const std::vector<std::uint8_t> huge_prefix = {0xFF, 0xFF, 0xFF, 0x7F};
  client.send_raw(huge_prefix);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kFrameTooLarge);
  EXPECT_FALSE(client.read_response().has_value());
}

TEST_F(ServeWireTest, BadVersionGetsTypedErrorThenClose) {
  QueryClient client(port());
  auto frame = encode_request(support_request({1}));
  frame[4 + 4] = 9;
  client.send_raw(frame);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kBadVersion);
  EXPECT_FALSE(client.read_response().has_value());
}

TEST_F(ServeWireTest, RequestLevelErrorKeepsConnectionUsable) {
  QueryClient client(port());
  auto frame = encode_request(support_request({1}, /*id=*/21));
  frame[4 + 5] = 42;  // unknown opcode byte
  client.send_raw(frame);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kBadOpcode);
  EXPECT_EQ(response->request_id, 21u);
  // Same connection still answers real queries.
  EXPECT_EQ(client.support(0, std::vector<Rank>{1}), 4u);
}

TEST_F(ServeWireTest, UnknownBlobIsTyped) {
  QueryClient client(port());
  Request request = support_request({1}, /*id=*/5);
  request.blob_id = 7;
  const auto response = client.call(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kUnknownBlob);
}

TEST_F(ServeWireTest, MidRequestDisconnectIsSurvived) {
  {
    QueryClient client(port());
    const auto frame = encode_request(support_request({1, 2, 3}));
    client.send_raw(std::span(frame).first(frame.size() / 2));
    client.shutdown_write();
    // Server sees EOF with a partial frame buffered: clean close, no reply.
    EXPECT_FALSE(client.read_response().has_value());
  }
  QueryClient probe(port());
  EXPECT_TRUE(probe.ping());
  EXPECT_GE(server_->server().stats().disconnects, 1u);
}

TEST_F(ServeWireTest, SlowLorisPartialWritesStillAnswer) {
  QueryClient client(port());
  const auto frame = encode_request(support_request({1, 2}, /*id=*/77));
  for (const std::uint8_t byte : frame) {
    client.send_raw(std::span(&byte, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);
  EXPECT_EQ(response->request_id, 77u);
  EXPECT_EQ(response->support, 4u);  // {A,B} in Table 1
}

TEST_F(ServeWireTest, PipelinedRequestsAllAnswerById) {
  QueryClient client(port());
  std::vector<std::uint8_t> burst;
  for (std::uint32_t id = 1; id <= 20; ++id) {
    const auto frame =
        encode_request(support_request({1u + id % 3}, /*id=*/id));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  client.send_raw(burst);
  std::vector<bool> seen(21, false);
  for (int i = 0; i < 20; ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::kOk);
    ASSERT_GE(response->request_id, 1u);
    ASSERT_LE(response->request_id, 20u);
    EXPECT_FALSE(seen[response->request_id]);
    seen[response->request_id] = true;
  }
}

TEST_F(ServeWireTest, FailpointShortReadsAndWritesResume) {
  // Every third socket op is truncated to one byte, on both the daemon and
  // this client (shared process registry) — answers must be unaffected.
  FailpointRegistry::Spec every3;
  every3.mode = FailpointRegistry::Mode::kEveryNth;
  every3.n = 3;
  FailpointRegistry::instance().arm("serve.socket.read", every3);
  FailpointRegistry::instance().arm("serve.socket.write", every3);
  QueryClient client(port());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client.support(0, std::vector<Rank>{1, 2}), 4u);
    EXPECT_EQ(client.support(0, std::vector<Rank>{3, 4}), 3u);  // {C,D}
  }
  EXPECT_GT(FailpointRegistry::instance().hits("serve.socket.read"), 0u);
  EXPECT_GT(FailpointRegistry::instance().hits("serve.socket.write"), 0u);
}

TEST_F(ServeWireTest, DeadlineTripIsAlwaysTypedNeverSilent) {
  // The acceptance contract: a deadline that expires mid-scan produces the
  // typed DEADLINE_EXCEEDED response. The "serve.deadline" failpoint
  // simulates the clock expiring at the first per-bucket checkpoint, so
  // the path is deterministic.
  FailpointRegistry::instance().arm("serve.deadline",
                                    FailpointRegistry::Spec{});
  QueryClient client(port());
  // Multi-rank support scans buckets; membership checks one bucket; a rule
  // runs two scans — every class must come back typed.
  for (const Opcode opcode :
       {Opcode::kSupport, Opcode::kMembership, Opcode::kRule}) {
    Request request;
    request.opcode = opcode;
    request.request_id = 1000 + static_cast<std::uint32_t>(opcode);
    request.deadline_ms = 1;
    request.ranks = {1, 2};
    if (opcode == Opcode::kRule) request.consequent = 3;
    const auto response = client.call(request);
    ASSERT_TRUE(response.has_value()) << to_string(opcode);
    EXPECT_EQ(response->status, Status::kDeadlineExceeded)
        << to_string(opcode);
    EXPECT_EQ(response->request_id, request.request_id);
    EXPECT_FALSE(response->detail.empty());
  }
  FailpointRegistry::instance().disarm_all();
  // The daemon kept running and counted every trip per class.
  const serve::StatsSnapshot stats = server_->server().stats();
  EXPECT_GE(stats.per_class[static_cast<std::size_t>(Opcode::kSupport)]
                .deadline_exceeded,
            1u);
  EXPECT_GE(stats.per_class[static_cast<std::size_t>(Opcode::kRule)]
                .deadline_exceeded,
            1u);
  QueryClient probe(port());
  EXPECT_EQ(probe.support(0, std::vector<Rank>{1, 2}), 4u);
}

TEST_F(ServeWireTest, RandomFrameFuzzNeverCrashes) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::uniform_int_distribution<std::size_t> len_dist(0, 64);
  for (int iteration = 0; iteration < 150; ++iteration) {
    QueryClient client(port());
    std::vector<std::uint8_t> bytes(len_dist(rng));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(byte_dist(rng));
    if (iteration % 3 == 0) {
      // Mutate a valid frame instead of raw noise: deeper decode coverage.
      auto frame = encode_request(support_request({1, 3}));
      if (!bytes.empty())
        for (std::size_t i = 0; i < bytes.size() && i < frame.size(); ++i)
          frame[frame.size() - 1 - i] ^= bytes[i];
      bytes = frame;
    }
    try {
      client.send_raw(bytes);
      client.shutdown_write();
      // Drain whatever the server says until it closes our stream.
      while (true) {
        std::uint8_t sink[256];
        if (!read_exact(client.fd(), sink, 1)) break;
        (void)sink;
      }
    } catch (const SocketError&) {
      // Resets are fine; crashes are not.
    }
  }
  QueryClient probe(port());
  EXPECT_TRUE(probe.ping());
  EXPECT_EQ(probe.support(0, std::vector<Rank>{1, 2}), 4u);
}

TEST_F(ServeWireTest, StatsDocumentIsWellFormedJson) {
  QueryClient client(port());
  ASSERT_TRUE(client.ping());
  const Response stats = client.stats();
  EXPECT_EQ(stats.generation, 1u);
  const std::string& json = stats.detail;
  EXPECT_NE(json.find("\"daemon\":\"plt-serve\""), std::string::npos);
  EXPECT_NE(json.find("\"ping\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
  // Balanced braces — cheap structural sanity for the hand-built JSON.
  int depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// The stats snapshot adds up the query engine's work per class: after
// 2- and 3-rank support and rule queries, each class's lists_decoded and
// ids_decoded equal what answer_query reports for the same requests on
// the same blob, and the stats document prints them.
TEST_F(ServeWireTest, StatsSumTheQueryWorkPerClass) {
  std::vector<Request> requests;
  for (const std::vector<Rank>& ranks :
       {std::vector<Rank>{1, 2}, {2, 4}, {1, 3, 4}})
    requests.push_back(support_request(ranks));
  for (const auto& [ranks, consequent] :
       {std::pair<std::vector<Rank>, Rank>{{1, 2}, 3},
        {{2, 3}, 4},
        {{1, 2, 3}, 4}}) {
    Request rule;
    rule.opcode = Opcode::kRule;
    rule.ranks = ranks;
    rule.consequent = consequent;
    requests.push_back(rule);
  }

  const auto blob = load_blob(blob_path_);
  const core::MiningControl control;
  QueryCounters expected[kOpcodeCount];
  QueryClient client(port());
  for (const Request& request : requests) {
    const auto response = client.call(request);
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, Status::kOk);
    ASSERT_EQ(answer_query(request, *blob, control,
                           expected[static_cast<std::size_t>(request.opcode)])
                  .status,
              Status::kOk);
  }

  const StatsSnapshot stats = server_->server().stats();
  const std::string json = client.stats().detail;
  for (const Opcode opcode : {Opcode::kSupport, Opcode::kRule}) {
    SCOPED_TRACE(to_string(opcode));
    const QueryCounters& want = expected[static_cast<std::size_t>(opcode)];
    const StatsSnapshot::PerClass& got =
        stats.per_class[static_cast<std::size_t>(opcode)];
    EXPECT_GT(want.buckets_scanned, 0u);
    EXPECT_EQ(got.lists_decoded, want.buckets_scanned);
    EXPECT_EQ(got.ids_decoded, want.entries_tested);
    EXPECT_NE(json.find(",\"lists_decoded\":" +
                        std::to_string(want.buckets_scanned) +
                        ",\"ids_decoded\":" +
                        std::to_string(want.entries_tested) + "}"),
              std::string::npos);
  }
}

TEST_F(ServeWireTest, ReloadSwapsGenerationUnderTraffic) {
  QueryClient client(port());
  EXPECT_EQ(client.support(0, std::vector<Rank>{1}), 4u);
  const Response reloaded = client.reload();
  EXPECT_EQ(reloaded.generation, 2u);
  EXPECT_EQ(client.support(0, std::vector<Rank>{1}), 4u);
  EXPECT_GE(server_->server().stats().reloads, 1u);
}

TEST_F(ServeWireTest, DescriptorExhaustionAtAcceptAnswersOverloaded) {
  // The "serve.accept" failpoint puts the acceptor on its EMFILE branch:
  // the connection gets one typed OVERLOADED frame and then EOF, not a
  // seat in the backlog. Every wait is bounded, so a daemon that never
  // answers fails the test instead of hanging it.
  const auto readable = [](int fd) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    return ::poll(&pfd, 1, 5000) == 1;
  };
  // Once: armed for good, the acceptor could still be on the refusal
  // branch when the next client below connects.
  FailpointRegistry::Spec once;
  once.mode = FailpointRegistry::Mode::kOneShot;
  once.n = 1;
  FailpointRegistry::instance().arm("serve.accept", once);
  {
    QueryClient refused(port());
    ASSERT_TRUE(readable(refused.fd()));
    const auto response = refused.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::kOverloaded);
    EXPECT_FALSE(response->detail.empty());
    ASSERT_TRUE(readable(refused.fd()));
    EXPECT_FALSE(refused.read_response().has_value());
  }
  FailpointRegistry::instance().disarm_all();
  QueryClient client(port());
  EXPECT_EQ(client.support(0, std::vector<Rank>{1, 2}), 4u);
  EXPECT_GE(server_->server().stats().overloaded, 1u);
}

TEST_F(ServeWireTest, ServedFileRewrittenInPlaceKeepsServing) {
  // The daemon serves from its index, not from the file: truncating the
  // file in place and filling it with junk changes no answer, a reload
  // fails typed while the old generation serves, and once the bytes are
  // back a reload takes.
  const auto rewrite = [&](const std::vector<std::uint8_t>& bytes) {
    std::FILE* file = std::fopen(blob_path_.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
    ASSERT_EQ(std::fclose(file), 0);
  };
  const std::vector<Rank> ab = {1, 2};
  QueryClient client(port());
  ASSERT_EQ(client.support(0, ab), 4u);
  const std::vector<std::uint8_t> original =
      compress::read_blob_file(blob_path_);

  ASSERT_EQ(::truncate(blob_path_.c_str(), 0), 0);
  EXPECT_EQ(client.support(0, ab), 4u);
  rewrite(std::vector<std::uint8_t>(original.size() / 2, 0xA5));
  EXPECT_EQ(client.support(0, ab), 4u);

  Request reload;
  reload.opcode = Opcode::kReload;
  reload.request_id = 900;
  const auto failed = client.call(reload);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->status, Status::kInternal);
  EXPECT_NE(failed->detail.find("reload failed"), std::string::npos);
  EXPECT_EQ(client.support(0, ab), 4u);
  EXPECT_EQ(client.stats().generation, 1u);

  ASSERT_EQ(::truncate(blob_path_.c_str(), 0), 0);
  rewrite(original);
  EXPECT_EQ(client.reload().generation, 2u);
  EXPECT_EQ(client.support(0, ab), 4u);
}

}  // namespace
}  // namespace plt::serve
