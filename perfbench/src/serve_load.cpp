#include "serve_load.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>
#include <unordered_map>

#include "compress/codec.hpp"
#include "serve/client.hpp"
#include "stats.hpp"

namespace perfbench {

using plt::serve::Opcode;
using plt::serve::QueryClient;
using plt::serve::Request;
using plt::serve::Response;
using plt::serve::Status;

namespace {

struct ClientSlot {
  std::vector<Request> requests;
  std::vector<QuerySample> samples;
  std::uint64_t transport_failures = 0;
  std::atomic<int> fd{-1};
  std::atomic<bool> finished{false};
};

void client_loop(std::uint16_t port, std::uint32_t connection,
                 std::size_t in_flight, RequestGenerator& generator,
                 const std::atomic<bool>& stop,
                 std::atomic<std::uint64_t>& completed, ClientSlot& slot) {
  std::unordered_map<std::uint32_t, std::size_t> pending;
  std::optional<QueryClient> client;
  try {
    client.emplace(port);
    slot.fd.store(client->fd());
    auto send_next = [&] {
      Request request = generator.next();
      request.request_id = static_cast<std::uint32_t>(slot.requests.size() + 1);
      const std::vector<std::uint8_t> frame =
          plt::serve::encode_request(request);
      QuerySample sample;
      sample.connection = connection;
      sample.index = static_cast<std::uint32_t>(slot.requests.size());
      sample.query_class = query_class(request.opcode);
      pending.emplace(request.request_id, slot.samples.size());
      slot.requests.push_back(std::move(request));
      sample.send_ns = now_ns();
      slot.samples.push_back(sample);
      client->send_raw(frame);
    };
    for (std::size_t i = 0; i < in_flight; ++i) send_next();
    while (!pending.empty()) {
      std::optional<Response> response = client->read_response();
      const std::int64_t received = now_ns();
      if (!response.has_value()) break;  // daemon closed the connection
      const auto it = pending.find(response->request_id);
      if (it == pending.end()) {
        ++slot.transport_failures;  // an answer to nothing we sent
        continue;
      }
      QuerySample& sample = slot.samples[it->second];
      pending.erase(it);
      sample.recv_ns = received;
      sample.ok = response->status == Status::kOk;
      response->detail.clear();
      sample.response = std::move(*response);
      completed.fetch_add(1, std::memory_order_relaxed);
      if (!stop.load(std::memory_order_relaxed)) send_next();
    }
  } catch (const std::exception&) {
    if (slot.requests.empty()) ++slot.transport_failures;  // never connected
  }
  // Unpublish the descriptor before closing it, so the stall guard in
  // run_load can never shut down a reused descriptor number.
  slot.fd.store(-1);
  client.reset();
  // Requests still pending when the connection ended were never answered;
  // they stay in the samples as failures.
  const std::int64_t now = now_ns();
  for (const auto& [id, index] : pending) {
    slot.samples[index].ok = false;
    slot.samples[index].recv_ns = now;
  }
  slot.finished.store(true);
}

void writer_loop(std::uint16_t port, RefreshPlan& plan,
                 const std::atomic<bool>& stop, std::atomic<int>& fd,
                 std::vector<ReloadEvent>& reloads) {
  std::optional<QueryClient> admin;
  try {
    admin.emplace(port);
    fd.store(admin->fd());
    std::uint32_t next_id = 1;
    auto due = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(kRefreshPeriodMs);
    while (!stop.load()) {
      std::this_thread::sleep_until(due);
      due += std::chrono::milliseconds(kRefreshPeriodMs);
      if (stop.load()) break;
      const int window =
          (plan.serving_window + 1) % static_cast<int>(plan.window_bytes.size());
      plt::compress::write_blob_file(*plan.window_bytes[window],
                                     plan.served_path);
      ReloadEvent event;
      event.window = window;
      Request request;
      request.opcode = Opcode::kReload;
      request.request_id = next_id++;
      event.send_ns = now_ns();
      const std::optional<Response> response = admin->call(request);
      event.reply_ns = now_ns();
      event.ok = response.has_value() && response->status == Status::kOk;
      if (event.ok) plan.serving_window = window;
      reloads.push_back(event);
    }
  } catch (const std::exception&) {
    ReloadEvent failed;
    failed.send_ns = failed.reply_ns = now_ns();
    reloads.push_back(failed);
  }
  fd.store(-1);
  admin.reset();
}

}  // namespace

LoadResult run_load(std::uint16_t port, const WorkloadSpec& spec,
                    std::vector<RequestGenerator>& generators, double seconds,
                    std::size_t min_samples, double max_seconds,
                    RefreshPlan* refresh) {
  LoadResult result;
  std::atomic<bool> stop{false};
  std::atomic<bool> stop_writer{false};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<int> writer_fd{-1};
  std::vector<std::unique_ptr<ClientSlot>> slots;
  for (std::size_t c = 0; c < kClientConnections; ++c)
    slots.push_back(std::make_unique<ClientSlot>());

  const std::int64_t start = now_ns();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClientConnections; ++c)
    clients.emplace_back(client_loop, port, static_cast<std::uint32_t>(c),
                         spec.in_flight, std::ref(generators[c]),
                         std::cref(stop), std::ref(completed),
                         std::ref(*slots[c]));
  std::thread writer;
  if (refresh != nullptr) result.initial_window = refresh->serving_window;
  if (refresh != nullptr)
    writer = std::thread(writer_loop, port, std::ref(*refresh),
                         std::cref(stop_writer), std::ref(writer_fd),
                         std::ref(result.reloads));

  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const double elapsed = seconds_since(start);
    bool all_finished = true;
    for (const auto& slot : slots) all_finished = all_finished && slot->finished;
    if (all_finished || elapsed >= max_seconds ||
        (elapsed >= seconds && completed.load() >= min_samples))
      break;
  }
  result.window_seconds = seconds_since(start);
  stop.store(true);

  // A stuck daemon must not hang the benchmark: after a grace period the
  // sockets are shut down, which fails every request still pending.
  const std::int64_t grace_end = now_ns() + 10'000'000'000;
  while (now_ns() < grace_end) {
    bool all_finished = true;
    for (const auto& slot : slots) all_finished = all_finished && slot->finished;
    if (all_finished) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const auto& slot : slots)
    if (!slot->finished && slot->fd.load() >= 0)
      ::shutdown(slot->fd.load(), SHUT_RDWR);
  for (std::thread& client : clients) client.join();
  stop_writer.store(true);
  if (writer.joinable()) {
    // The writer waits at most one period, plus a reload that may hang.
    const std::int64_t writer_end =
        now_ns() + (std::int64_t{kRefreshPeriodMs} + 10'000) * 1'000'000;
    while (writer_fd.load() >= 0 && now_ns() < writer_end)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (writer_fd.load() >= 0) ::shutdown(writer_fd.load(), SHUT_RDWR);
    writer.join();
  }

  for (auto& slot : slots) {
    result.transport_failures += slot->transport_failures;
    result.requests.push_back(std::move(slot->requests));
    result.samples.insert(result.samples.end(), slot->samples.begin(),
                          slot->samples.end());
  }
  return result;
}

namespace {

// The stats document is produced by StatsSnapshot::to_json; these helpers
// read the few integers the benchmark needs without a JSON library.
std::uint64_t number_after(const std::string& json, std::size_t from,
                           const std::string& key, std::size_t limit) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos || at >= limit) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

const char* const kOpcodeNames[] = {"ping",  "support", "membership", "top-k",
                                    "rule",  "stats",   "reload"};

}  // namespace

ServerStats fetch_server_stats(std::uint16_t port) {
  QueryClient client(port);
  Request request;
  request.opcode = Opcode::kStats;
  request.request_id = 1;
  const std::optional<Response> response = client.call(request);
  if (!response.has_value() || response->status != Status::kOk)
    throw std::runtime_error("stats request failed");
  const std::string& json = response->detail;
  ServerStats stats;
  stats.generation = response->generation;
  const std::size_t classes = json.find("\"classes\":");
  if (classes == std::string::npos)
    throw std::runtime_error("stats document has no classes");
  stats.batched_requests = number_after(json, 0, "batched_requests", classes);
  stats.overloaded = number_after(json, 0, "overloaded", classes);
  for (std::size_t op = 0; op < std::size(kOpcodeNames); ++op) {
    const std::string head =
        std::string("\"") + kOpcodeNames[op] + "\":{\"requests\":";
    const std::size_t at = json.find(head, classes);
    if (at == std::string::npos) continue;
    const std::size_t end = json.find("p999_ns", at);
    const std::uint64_t requests = number_after(json, at, "requests", end);
    stats.total_requests += requests;
    const int cls = query_class(static_cast<Opcode>(op));
    if (cls < 0) continue;
    stats.requests[cls] = requests;
    stats.deadline_exceeded[cls] =
        number_after(json, at, "deadline_exceeded", end);
    stats.latency_count[cls] = number_after(json, at, "count", end);
    stats.latency_sum_ns[cls] = number_after(json, at, "sum_ns", end);
  }
  return stats;
}

namespace {

template <class Op>
ServerStats combine(const ServerStats& a, const ServerStats& b, Op op) {
  ServerStats out = a;
  for (int c = 0; c < kQueryClasses; ++c) {
    out.requests[c] = op(a.requests[c], b.requests[c]);
    out.latency_count[c] = op(a.latency_count[c], b.latency_count[c]);
    out.latency_sum_ns[c] = op(a.latency_sum_ns[c], b.latency_sum_ns[c]);
    out.deadline_exceeded[c] = op(a.deadline_exceeded[c], b.deadline_exceeded[c]);
  }
  out.total_requests = op(a.total_requests, b.total_requests);
  out.batched_requests = op(a.batched_requests, b.batched_requests);
  out.overloaded = op(a.overloaded, b.overloaded);
  return out;
}

}  // namespace

ServerStats ServerStats::minus(const ServerStats& earlier) const {
  return combine(*this, earlier, std::minus<std::uint64_t>());
}

ServerStats ServerStats::plus(const ServerStats& other) const {
  return combine(*this, other, std::plus<std::uint64_t>());
}

std::vector<double> timed_reloads(std::uint16_t port, std::size_t min_count,
                                  double seconds) {
  QueryClient admin(port);
  std::vector<double> millis;
  const std::int64_t start = now_ns();
  std::uint32_t next_id = 1;
  while (millis.size() < min_count || seconds_since(start) < seconds) {
    Request request;
    request.opcode = Opcode::kReload;
    request.request_id = next_id++;
    const std::int64_t sent = now_ns();
    const std::optional<Response> response = admin.call(request);
    const double elapsed_ms = static_cast<double>(now_ns() - sent) * 1e-6;
    const bool ok = response.has_value() && response->status == Status::kOk;
    millis.push_back(ok ? elapsed_ms : kFailedLatency);
    if (millis.size() >= 10 * min_count) break;
  }
  return millis;
}

bool same_answer(const Response& a, const Response& b) {
  if (a.opcode != b.opcode || a.status != b.status ||
      a.support != b.support ||
      a.antecedent_support != b.antecedent_support ||
      a.confidence_ppm != b.confidence_ppm || a.member != b.member ||
      a.top.size() != b.top.size())
    return false;
  for (std::size_t i = 0; i < a.top.size(); ++i)
    if (a.top[i].rank != b.top[i].rank || a.top[i].support != b.top[i].support)
      return false;
  return true;
}

std::vector<int> candidate_windows(const QuerySample& sample,
                                   const std::vector<ReloadEvent>& reloads,
                                   int initial_window, int windows) {
  int serving = initial_window;
  for (const ReloadEvent& event : reloads) {
    if (!event.ok) continue;
    if (event.reply_ns < sample.send_ns) {
      serving = event.window;
      continue;
    }
    if (event.send_ns > sample.recv_ns) break;
    // The swap happened somewhere inside this request's round trip.
    std::vector<int> all;
    for (int w = 0; w < windows; ++w) all.push_back(w);
    return all;
  }
  return {serving};
}

}  // namespace perfbench
