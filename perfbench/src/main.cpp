// plt-perfbench — the repo benchmark: both end-to-end paths of the system,
// dataset -> frequent itemsets and blob on disk -> answered query, on one
// seeded workload (perfbench/README.md has the metric, layer and workload
// tables).
//
//   plt-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --serve-bin PATH --shard-bin PATH --work-dir DIR
//                 [--scale F] [--trace-out FILE] [--source TEXT]
//                 [--inject-wrong-answer]
//
// --trace 0 measures with tracing off and prints the end-to-end metrics.
// --trace 1 is the separate traced run: it records a span around every call
// the benchmark makes into a layer, wraps the mining calls and the
// in-process query replay in obs::TraceSession, and prints the per-layer
// metrics. Both check every output against core::mine / answer_query and
// count each mismatch, refused request or daemon crash as a failed
// operation. The last stdout line is the JSON result; --scale shrinks the
// data for the smoke test, and --inject-wrong-answer corrupts the expected
// answers so that test can see the correctness gate fire.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "compress/index.hpp"
#include "compress/ooc_miner.hpp"
#include "core/builder.hpp"
#include "core/miner.hpp"
#include "harness/experiment.hpp"
#include "host.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "parallel/partition_miner.hpp"
#include "serve/client.hpp"
#include "serve/query_engine.hpp"
#include "serve_load.hpp"
#include "shard/coordinator.hpp"
#include "span_log.hpp"
#include "stats.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

namespace {

using namespace plt;
using namespace perfbench;

constexpr double kMiB = 1024.0 * 1024.0;
/// In the traced run the children of an end-to-end span must account for
/// its wall time to within this share, or leave less than kReconSlackS of
/// it uncovered (fixed costs such as thread start-up and teardown are a
/// large share of a tiny smoke-test call).
constexpr double kReconTolerance = 0.10;
constexpr double kReconSlackS = 0.02;
/// Set-up repetitions per untraced run; setup_s is their median.
constexpr std::size_t kSetupReps = 9;
/// Every mining path repeats at least this often; its metric is the median.
constexpr std::size_t kMinMineReps = 3;
/// The serve blocks run until they hold this many requests, so that at
/// least ten samples lie beyond the 99th percentile.
constexpr std::size_t kMinQuerySamples = 1000;
/// Served answers re-derived in process: per untraced run, and in the
/// traced run's engine replay.
constexpr std::size_t kCheckedAnswers = 128;
constexpr std::size_t kReplayedAnswers = 400;
constexpr std::size_t kMinReloads = 30;
/// Metrics the untraced run prints but leaves out of its result line, so
/// they get no regression bound, because over ten seeds their spread
/// reached or passed 0.25, the largest bound allowed (see
/// perfbench/README.md). The timings follow the host's speed, which drifts
/// by up to ±20% over minutes; mine_cpu_s is the one bounded timing, since
/// core::mine runs on one thread and its CPU time leaves out the time the
/// vCPU is lent to another guest. mine_par_peak_mb steps up by about a
/// quarter on the dense-deep seeds with the largest outputs.
const char* const kUnboundedMetrics[] = {
    "mine_s",    "mine_par_s",   "shard_mine_s", "mine_par_peak_mb",
    "reload_ms", "query_rps",    "query_p50_us", "query_p99_us",
    "query_cpu_us"};
/// Idle reloads per interleaved round of the untraced run.
constexpr std::size_t kReloadsPerRound = 4;
/// Share of the untraced rounds' time that mine_parallel, and separately
/// mine_sharded, may take. Their metrics carry no bound, so the rest goes
/// to the core::mine repetitions that mine_cpu_s is the median of.
constexpr double kPrintedPathShare = 0.12;
/// plt-serve worker loops: with two client connections this keeps at most
/// four threads busy on a four-vCPU host.
constexpr const char* kServeThreads = "2";
/// First argument of the worker-wrapping mode (see record_peak_rss).
constexpr const char* kRecordPeakFlag = "--record-peak-rss";

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string serve_bin;
  std::string shard_bin;
  std::string work_dir;
  std::string trace_out;
  std::string source;  ///< commit and source digest, for the stamp
  double scale = 1.0;
  bool inject_wrong = false;
};

Options parse_options(int argc, char** argv) {
  const Args args(argc, argv);
  static const char* const kKnown[] = {
      "workload", "seed",      "seconds", "trace",     "serve-bin",
      "shard-bin", "work-dir", "scale",   "trace-out", "source",
      "inject-wrong-answer"};
  for (const std::string& key : args.keys())
    if (std::find(std::begin(kKnown), std::end(kKnown), key) == std::end(kKnown))
      throw std::invalid_argument("unknown flag --" + key);
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "serve-bin", "shard-bin", "work-dir"})
    if (!args.has(required))
      throw std::invalid_argument(std::string("missing --") + required);
  Options o;
  o.workload = args.get("workload", "");
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  o.seconds = args.get_double("seconds", 0.0);
  o.trace = args.get_int("trace", 0) != 0;
  o.serve_bin = args.get("serve-bin", "");
  o.shard_bin = args.get("shard-bin", "");
  o.work_dir = args.get("work-dir", "");
  o.trace_out = args.get("trace-out", o.work_dir + "/spans.json");
  o.source = args.get("source", "unknown");
  o.scale = args.get_double("scale", 1.0);
  o.inject_wrong = args.get_bool("inject-wrong-answer", false);
  if (o.seconds <= 0.0 || o.scale <= 0.0)
    throw std::invalid_argument("--seconds and --scale must be positive");
  return o;
}

/// Attempted and failed operations of the run.
class Tally {
 public:
  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok && failed_++ < 20) std::cout << "FAILED: " << what << '\n';
    return ok;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

template <class Body>
std::vector<double> repeat(double budget_s, std::size_t min_reps,
                           std::size_t max_reps, Body&& body) {
  std::vector<double> values;
  const std::int64_t start = now_ns();
  while (values.size() < min_reps ||
         (values.size() < max_reps && seconds_since(start) < budget_s))
    values.push_back(body());
  return values;
}

// ---- set-up: seed -> ready to serve --------------------------------------

struct Window {
  tdb::Database db;
  std::vector<Item> item_of;     ///< item_of[r-1] = item of rank r
  std::vector<Rank> popularity;  ///< ranks, most supported first
  std::vector<std::uint8_t> blob;
  std::string path;
};

struct Setup {
  std::vector<Window> windows;
  Count min_support = 0;
  std::string served_path;
  std::unique_ptr<Daemon> daemon;
};

std::size_t transactions(const Options& o, const WorkloadSpec& spec) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             static_cast<double>(spec.transactions) * o.scale)));
}

Setup run_setup(const Options& o, const WorkloadSpec& spec, SpanLog* log,
                Tally& tally) {
  Setup setup;
  std::vector<tdb::Database> dbs;
  {
    Scope span(log, "datagen.generate");
    dbs = generate_windows(spec, transactions(o, spec), o.seed);
  }
  setup.min_support = harness::absolute_support(dbs[0], spec.minsup_fraction);
  for (std::size_t w = 0; w < dbs.size(); ++w) {
    Window window;
    window.db = std::move(dbs[w]);
    core::RankedView view;
    {
      Scope span(log, "core.build_ranked_view");
      view = core::build_ranked_view(window.db, setup.min_support);
    }
    if (view.alphabet() == 0)
      throw std::runtime_error("workload has no frequent items");
    const auto max_rank = static_cast<Rank>(view.alphabet());
    const core::Plt plt = [&] {
      Scope span(log, "core.build_plt");
      return core::build_plt(view.db, max_rank);
    }();
    {
      Scope span(log, "compress.encode_plt");
      window.blob = compress::encode_plt(plt);
    }
    window.path = o.work_dir + "/window" + std::to_string(w) + ".plt2";
    {
      Scope span(log, "compress.write_blob_file");
      compress::write_blob_file(window.blob, window.path);
    }
    for (Rank r = 1; r <= max_rank; ++r) {
      window.item_of.push_back(view.item_of(r));
      window.popularity.push_back(r);
    }
    std::stable_sort(window.popularity.begin(), window.popularity.end(),
                     [&](Rank a, Rank b) {
                       return view.support_of(a) > view.support_of(b);
                     });
    setup.windows.push_back(std::move(window));
  }
  setup.served_path = setup.windows[0].path;
  if (spec.refresh) {
    setup.served_path = o.work_dir + "/served.plt2";
    Scope span(log, "compress.write_blob_file");
    compress::write_blob_file(setup.windows[0].blob, setup.served_path);
  }
  Scope span(log, "serve.start");
  setup.daemon = std::make_unique<Daemon>();
  setup.daemon->start(o.serve_bin,
                      {setup.served_path, "--threads", kServeThreads},
                      o.work_dir + "/plt-serve.ready",
                      o.work_dir + "/plt-serve.log");
  serve::QueryClient client(setup.daemon->port());
  serve::Request first;
  first.opcode = serve::Opcode::kSupport;
  first.request_id = 1;
  first.ranks = {setup.windows[0].popularity.front()};
  const std::optional<serve::Response> answer = client.call(first);
  tally.check(answer.has_value() && answer->status == serve::Status::kOk,
              "first answer after start-up");
  return setup;
}

// ---- mining paths ---------------------------------------------------------

/// core::mine's output, the expected answer of every other mining path.
struct Reference {
  core::FrequentItemsets itemsets;
  Digest digest;
};

core::MineResult run_mine(const Setup& setup) {
  return core::mine(setup.windows[0].db, setup.min_support,
                    core::Algorithm::kPltConditional);
}

Reference make_reference(const Setup& setup, bool inject_wrong) {
  Reference ref;
  ref.itemsets = run_mine(setup).itemsets;
  if (inject_wrong) {
    const Item bogus[] = {setup.windows[0].db.max_item() + 1};
    ref.itemsets.add(std::span<const Item>(bogus), 1);
  }
  ref.digest.add(ref.itemsets);
  return ref;
}

core::MineResult run_mine_parallel(const Setup& setup) {
  parallel::ParallelOptions options;
  options.threads = 2;
  return parallel::mine_parallel(setup.windows[0].db, setup.min_support,
                                 options);
}

/// One mine_sharded call into a fresh job directory; returns whether it
/// completed with merged emissions equal to the reference. `launch_prefix`
/// wraps each worker command (the traced run records worker peaks with it).
bool run_sharded(const Options& o, const Setup& setup, const Reference& ref,
                 const std::vector<std::string>& launch_prefix,
                 shard::ShardReport& report) {
  const std::string dir = o.work_dir + "/shard-job";
  remove_tree(dir);
  shard::ShardOptions options;
  options.workers = 2;
  options.dir = dir;
  options.worker_binary = o.shard_bin;
  options.launch_prefix = launch_prefix;
  Digest digest;
  const core::MineStatus status = shard::mine_sharded(
      setup.windows[0].db, setup.min_support,
      [&](std::span<const Item> items, Count support) {
        digest.add(items, support);
      },
      options, &report);
  remove_tree(dir);
  return status == core::MineStatus::kCompleted && digest == ref.digest;
}

bool run_ooc(const Setup& setup, const Reference& ref,
             compress::OocStats& stats) {
  Digest digest;
  const core::MineStatus status = compress::mine_from_blob(
      setup.windows[0].blob, setup.windows[0].item_of, setup.min_support,
      [&](std::span<const Item> items, Count support) {
        digest.add(items, support);
      },
      &stats);
  return status == core::MineStatus::kCompleted && digest == ref.digest;
}

// ---- serving --------------------------------------------------------------

std::vector<RequestGenerator> make_generators(const Options& o,
                                              const WorkloadSpec& spec,
                                              const Setup& setup) {
  std::vector<RequestGenerator> generators;
  for (std::size_t c = 0; c < kClientConnections; ++c)
    generators.emplace_back(mix64(o.seed * 1000003 + c + 1),
                            setup.windows[0].popularity, spec.zipf_ranks);
  return generators;
}

/// The samples whose answers are re-derived in process: up to `limit`
/// answered ones, evenly spread over the window.
std::vector<std::size_t> replay_selection(const LoadResult& load,
                                          std::size_t limit) {
  std::vector<std::size_t> answered;
  for (std::size_t i = 0; i < load.samples.size(); ++i)
    if (load.samples[i].ok) answered.push_back(i);
  const std::size_t step = std::max<std::size_t>(1, answered.size() / limit);
  std::vector<std::size_t> selection;
  for (std::size_t k = 0; k < answered.size(); k += step)
    selection.push_back(answered[k]);
  return selection;
}

/// Answers the selected requests with serve::answer_query on the blob that
/// served them. With a tally, an answer that differs from the served one
/// fails its sample; `engine_us` (may be null) receives each in-process
/// answer time per class, `counters` (may be null) the engine's tallies.
void replay_answers(LoadResult& load, const std::vector<std::size_t>& selection,
                    const std::vector<std::unique_ptr<const serve::LoadedBlob>>& blobs,
                    bool inject_wrong, Tally* tally,
                    std::vector<double>* engine_us,
                    serve::QueryCounters* counters) {
  const core::MiningControl unlimited;
  serve::QueryCounters scratch;
  for (const std::size_t index : selection) {
    QuerySample& sample = load.samples[index];
    const serve::Request& request =
        load.requests[sample.connection][sample.index];
    const std::vector<int> windows = candidate_windows(
        sample, load.reloads, load.initial_window,
        static_cast<int>(blobs.size()));
    bool matched = false;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const std::int64_t start = now_ns();
      serve::Response expected = serve::answer_query(
          request, *blobs[static_cast<std::size_t>(windows[w])], unlimited,
          w == 0 && counters != nullptr ? *counters : scratch);
      const double us = static_cast<double>(now_ns() - start) * 1e-3;
      if (w == 0 && engine_us != nullptr)
        engine_us[sample.query_class].push_back(us);
      if (inject_wrong) expected.support += 1;
      matched = matched || same_answer(expected, sample.response);
    }
    if (tally != nullptr &&
        !tally->check(matched, "served answer differs from answer_query"))
      sample.ok = false;
  }
}

struct ServeResult {
  LoadResult load;
  std::vector<std::size_t> replayed;  ///< samples checked in process
  ServerStats delta;                  ///< the daemon's tallies over the blocks
  double rss_bytes = 0.0;
  double daemon_cpu_s = 0.0;  ///< plt-serve CPU time over the blocks
  std::vector<double> reload_ms;
};

/// Drives the closed-loop load against the set-up's daemon in measured
/// blocks, so the untraced run can interleave serving with the mining
/// repetitions; the blocks pool into one window.
class ServeBlocks {
 public:
  ServeBlocks(const Options& o, const WorkloadSpec& spec, Setup& setup)
      : spec_(spec),
        setup_(setup),
        port_(setup.daemon->port()),
        generators_(make_generators(o, spec, setup)) {
    plan_.served_path = setup.served_path;
    for (const Window& window : setup.windows)
      plan_.window_bytes.push_back(&window.blob);
  }

  /// Untimed load (answers are still checked); then the daemon's VmRSS.
  void warm_up(double seconds, Tally& tally) {
    const LoadResult warm = run_load(port_, spec_, generators_, seconds, 0,
                                     seconds + 10.0, refresh());
    for (const QuerySample& sample : warm.samples)
      tally.check(sample.ok, "warm-up request refused or lost");
    result_.rss_bytes = static_cast<double>(
        proc_status_bytes(std::to_string(setup_.daemon->pid()), "VmRSS"));
  }

  /// One measured block of at least `seconds` and `min_samples` requests;
  /// returns how many of them were answered.
  std::size_t block(double seconds, std::size_t min_samples, SpanLog* log,
                    Tally& tally) {
    const std::optional<ServerStats> before = stats(tally);
    const double cpu_before = process_cpu_seconds(setup_.daemon->pid());
    LoadResult load;
    {
      Scope span(log, "serve.window");
      load = run_load(port_, spec_, generators_, seconds, min_samples,
                      std::max(3.0 * seconds, seconds + 20.0), refresh());
      if (log != nullptr)
        for (const QuerySample& sample : load.samples)
          log->add(std::string("query.") + kClassNames[sample.query_class],
                   sample.send_ns, sample.recv_ns,
                   static_cast<std::int64_t>(sample.connection) << 32 |
                       (sample.index + 1));
    }
    // A daemon that died in the block reads as zero CPU time.
    result_.daemon_cpu_s += std::max(
        0.0, process_cpu_seconds(setup_.daemon->pid()) - cpu_before);
    const std::optional<ServerStats> after = stats(tally);
    if (before && after)
      result_.delta = result_.delta.plus(after->minus(*before));

    std::size_t answered = 0;
    for (const QuerySample& sample : load.samples) answered += sample.ok;
    LoadResult& window = result_.load;
    if (window.requests.empty()) window.initial_window = load.initial_window;
    const auto offset = static_cast<std::uint32_t>(window.requests.size());
    for (QuerySample& sample : load.samples) {
      sample.connection += offset;
      window.samples.push_back(std::move(sample));
    }
    for (auto& requests : load.requests)
      window.requests.push_back(std::move(requests));
    window.reloads.insert(window.reloads.end(), load.reloads.begin(),
                          load.reloads.end());
    window.window_seconds += load.window_seconds;
    window.transport_failures += load.transport_failures;
    return answered;
  }

  /// Back-to-back reloads on the idle daemon (workloads without a writer).
  void idle_reloads(std::size_t count, double seconds, SpanLog* log,
                    Tally& tally) {
    Scope span(log, "serve.reloads");
    try {
      const std::vector<double> ms = timed_reloads(port_, count, seconds);
      result_.reload_ms.insert(result_.reload_ms.end(), ms.begin(), ms.end());
    } catch (const std::exception& error) {
      tally.check(false, std::string("reload connection failed: ") + error.what());
    }
  }

  std::size_t samples() const { return result_.load.samples.size(); }
  std::size_t reloads() const {
    return spec_.refresh ? result_.load.reloads.size() : result_.reload_ms.size();
  }

  /// Counts every request, reload and connection of the blocks against the
  /// tally, checks `replayed` served answers in process, and hands over
  /// the pooled window.
  ServeResult finish(const std::vector<std::unique_ptr<const serve::LoadedBlob>>& blobs,
                     std::size_t replayed, bool inject_wrong, Tally& tally,
                     std::vector<double>* engine_us) {
    ServeResult result = std::move(result_);
    tally.check(result.load.transport_failures == 0,
                std::to_string(result.load.transport_failures) +
                    " connection failures or stray answers");
    for (const QuerySample& sample : result.load.samples)
      tally.check(sample.ok, "request refused or lost in the window");
    result.replayed = replay_selection(result.load, replayed);
    replay_answers(result.load, result.replayed, blobs, inject_wrong, &tally,
                   engine_us, nullptr);
    if (spec_.refresh) {
      for (const ReloadEvent& event : result.load.reloads) {
        tally.check(event.ok, "reload under traffic failed");
        result.reload_ms.push_back(
            event.ok ? static_cast<double>(event.reply_ns - event.send_ns) * 1e-6
                     : kFailedLatency);
      }
    } else {
      for (const double ms : result.reload_ms)
        tally.check(ms != kFailedLatency, "reload failed");
    }
    if (result.reload_ms.empty()) tally.check(false, "no reload was measured");
    return result;
  }

 private:
  RefreshPlan* refresh() { return spec_.refresh ? &plan_ : nullptr; }

  /// The daemon's stats, or nothing (and a failed operation) when it no
  /// longer answers.
  std::optional<ServerStats> stats(Tally& tally) {
    try {
      return fetch_server_stats(port_);
    } catch (const std::exception& error) {
      tally.check(false, std::string("stats request failed: ") + error.what());
      return std::nullopt;
    }
  }

  const WorkloadSpec& spec_;
  Setup& setup_;
  std::uint16_t port_ = 0;
  std::vector<RequestGenerator> generators_;
  RefreshPlan plan_;
  ServeResult result_;
};

std::vector<double> latencies_us(const LoadResult& load, int only_class) {
  std::vector<double> us;
  for (const QuerySample& sample : load.samples) {
    if (only_class >= 0 && sample.query_class != only_class) continue;
    us.push_back(sample.ok
                     ? static_cast<double>(sample.recv_ns - sample.send_ns) * 1e-3
                     : kFailedLatency);
  }
  return us;
}

std::string describe(const Quantile& q) {
  if (q.beyond < kMinBeyond)
    return "refused (" + std::to_string(q.beyond) + " samples beyond, need " +
           std::to_string(kMinBeyond) + ")";
  return format_number(q.value) + " us (" + std::to_string(q.beyond) +
         " beyond)";
}

void print_latency_table(const LoadResult& load) {
  std::cout << "latency per class (exact order statistics over raw round trips):\n";
  for (int c = -1; c < kQueryClasses; ++c) {
    const std::vector<double> us = latencies_us(load, c);
    std::cout << "  " << (c < 0 ? "all" : kClassNames[c]) << ": n=" << us.size()
              << " p50=" << describe(quantile(us, 0.50))
              << " p99=" << describe(quantile(us, 0.99)) << '\n';
  }
}

void stop_daemon(Setup& setup, Tally& tally) {
  if (setup.daemon && setup.daemon->running())
    tally.check(setup.daemon->stop(), "plt-serve did not drain and exit 0");
}

std::vector<std::unique_ptr<const serve::LoadedBlob>> load_blobs(
    const Setup& setup) {
  std::vector<std::unique_ptr<const serve::LoadedBlob>> blobs;
  for (const Window& window : setup.windows)
    blobs.push_back(serve::load_blob(window.path));
  return blobs;
}

// ---- the untraced run: end-to-end metrics --------------------------------

std::vector<Metric> run_end_to_end(const Options& o, const WorkloadSpec& spec,
                                   Tally& tally) {
  const double T = o.seconds;
  std::vector<double> setup_s;
  Setup setup;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    stop_daemon(setup, tally);
    setup = Setup{};
    const std::int64_t start = now_ns();
    setup = run_setup(o, spec, nullptr, tally);
    setup_s.push_back(seconds_since(start));
  }
  const Reference ref = make_reference(setup, o.inject_wrong);
  std::cout << "reference: " << ref.itemsets.size() << " itemsets at support "
            << setup.min_support << " over " << setup.windows[0].db.size()
            << " transactions\n";
  {
    compress::OocStats stats;
    tally.check(run_ooc(setup, ref, stats),
                "mine_from_blob output differs from core::mine");
  }
  const auto blobs = load_blobs(setup);
  ServeBlocks serving(o, spec, setup);
  serving.warm_up(0.04 * T, tally);

  // Rounds interleave one core::mine, a serve block as long as it and a few
  // idle reloads, so each metric's repetitions spread over the whole run
  // and host speed drift over seconds lands on all of them alike.
  // mine_parallel and mine_sharded join a round while their time is below
  // kPrintedPathShare of the rounds' (and until each has its minimum).
  std::vector<double> mine_s, mine_cpu_s, par_s, shard_s;
  double mine_peak = 0.0, par_peak = 0.0, par_total_s = 0.0, shard_total_s = 0.0;
  const std::int64_t start = now_ns();
  auto side_path_due = [&](double total_s, std::size_t reps) {
    const double elapsed = seconds_since(start);
    return total_s <= kPrintedPathShare * elapsed ||
           (elapsed >= 0.9 * T && reps < kMinMineReps);
  };
  while (seconds_since(start) < 0.9 * T || mine_s.size() < kMinMineReps ||
         par_s.size() < kMinMineReps || shard_s.size() < kMinMineReps ||
         serving.samples() < kMinQuerySamples || serving.reloads() < kMinReloads) {
    {
      const std::uint64_t base = begin_peak_window();
      const double cpu0 = thread_cpu_seconds();
      const std::int64_t t0 = now_ns();
      const core::MineResult result = run_mine(setup);
      mine_s.push_back(seconds_since(t0));
      mine_cpu_s.push_back(thread_cpu_seconds() - cpu0);
      mine_peak = std::max(mine_peak, static_cast<double>(peak_growth_bytes(base)));
      Digest digest;
      digest.add(result.itemsets);
      tally.check(result.status == core::MineStatus::kCompleted &&
                      digest == ref.digest,
                  "core::mine output differs from the reference");
    }
    if (side_path_due(par_total_s, par_s.size())) {
      const std::uint64_t base = begin_peak_window();
      const std::int64_t t0 = now_ns();
      const core::MineResult result = run_mine_parallel(setup);
      par_s.push_back(seconds_since(t0));
      par_total_s += par_s.back();
      par_peak = std::max(par_peak, static_cast<double>(peak_growth_bytes(base)));
      tally.check(core::FrequentItemsets::equal(ref.itemsets, result.itemsets),
                  "mine_parallel output differs from core::mine");
    }
    if (side_path_due(shard_total_s, shard_s.size())) {
      shard::ShardReport report;
      const std::int64_t t0 = now_ns();
      const bool ok = run_sharded(o, setup, ref, {}, report);
      shard_s.push_back(seconds_since(t0));
      shard_total_s += shard_s.back();
      tally.check(ok, "mine_sharded output differs from core::mine");
    }
    const double block_s = std::clamp(mine_s.back(), 0.5, 2.0);
    if (serving.block(block_s, 0, nullptr, tally) == 0) {
      tally.check(false, "plt-serve answered nothing in a serve block");
      break;
    }
    if (!spec.refresh)
      serving.idle_reloads(kReloadsPerRound, 0.0, nullptr, tally);
    if (seconds_since(start) > 3.0 * T + 30.0)
      throw std::runtime_error("the run's minimum repetitions do not fit");
  }
  ServeResult serve =
      serving.finish(blobs, kCheckedAnswers, o.inject_wrong, tally, nullptr);
  stop_daemon(setup, tally);

  print_latency_table(serve.load);
  const std::vector<double> all_us = latencies_us(serve.load, -1);
  const Quantile p50 = quantile(all_us, 0.50);
  const Quantile p99 = quantile(all_us, 0.99);
  tally.check(p99.beyond >= kMinBeyond,
              "too few samples beyond the 99th percentile");
  std::size_t answered = 0;
  for (const QuerySample& sample : serve.load.samples) answered += sample.ok;

  std::cout << "repetitions: setup " << setup_s.size() << ", mine "
            << mine_s.size() << ", mine_parallel " << par_s.size()
            << ", mine_sharded " << shard_s.size() << ", reloads "
            << serve.reload_ms.size() << ", queries "
            << serve.load.samples.size() << " in "
            << format_number(serve.load.window_seconds) << " s\n";

  return {
      {"setup_s", median(setup_s), "s"},
      {"mine_cpu_s", median(mine_cpu_s), "s"},
      {"mine_s", median(mine_s), "s"},
      {"mine_par_s", median(par_s), "s"},
      {"shard_mine_s", median(shard_s), "s"},
      {"mine_peak_mb", mine_peak / kMiB, "MB"},
      {"mine_par_peak_mb", par_peak / kMiB, "MB"},
      {"blob_bytes", static_cast<double>(setup.windows[0].blob.size()), "B"},
      {"reload_ms", median(serve.reload_ms), "ms"},
      {"serve_rss_mb", serve.rss_bytes / kMiB, "MB"},
      {"query_rps",
       static_cast<double>(answered) / serve.load.window_seconds, "req/s"},
      {"query_p50_us", p50.value, "us"},
      {"query_p99_us", p99.value, "us"},
      {"query_cpu_us",
       serve.daemon_cpu_s / static_cast<double>(answered) * 1e6, "us"},
  };
}

// ---- the traced run: per-layer metrics -----------------------------------

const char* const kKernelCounters[] = {
    "kernel.peel_prefixes.calls",       "kernel.peel_prefixes.bytes",
    "kernel.encode_varint_block.calls", "kernel.encode_varint_block.bytes",
    "kernel.decode_varint_block.calls", "kernel.decode_varint_block.bytes",
    "kernel.intersect_count.calls",     "kernel.intersect_count.bytes",
    "kernel.intersect_sorted.calls",    "kernel.intersect_sorted.bytes"};

/// Kernel call and byte counters summed over one traced call of each path.
struct KernelCounters {
  std::map<std::string, double> totals;
  void add(const obs::TraceNode* tree) {
    if (tree == nullptr) return;
    for (const char* name : kKernelCounters)
      totals[name] += static_cast<double>(tree->counter_total(name));
  }
};

double node_ns(const obs::TraceNode* node) {
  return node == nullptr ? 0.0 : static_cast<double>(node->total_ns);
}

/// A span's duration minus the part its children cover (ns).
double self_ns(const obs::TraceNode* node) {
  if (node == nullptr) return 0.0;
  double children = 0.0;
  for (const obs::TraceNode& child : node->children)
    children += static_cast<double>(child.total_ns);
  return static_cast<double>(node->total_ns) - children;
}

void check_coverage(Tally& tally, const char* span, double pct, double wall_s) {
  const double uncovered_s = wall_s * (1.0 - pct / 100.0);
  std::cout << "reconcile " << span << ": children cover " << format_number(pct)
            << "% of " << format_number(wall_s) << " s (tolerance "
            << kReconTolerance * 100 << "% or " << kReconSlackS << " s)\n";
  tally.check((pct >= 100.0 * (1.0 - kReconTolerance) ||
               uncovered_s < kReconSlackS) &&
                  pct <= 100.5,
              std::string("children of ") + span +
                  " do not account for its wall time");
}

std::vector<Metric> run_traced(const Options& o, const WorkloadSpec& spec,
                               Tally& tally) {
  const double T = o.seconds;
  SpanLog log;
  std::vector<Metric> metrics;
  KernelCounters kernels;

  Setup setup;
  double setup_pct = 0.0, setup_wall_s = 0.0, gen_s = 0.0, encode_s = 0.0,
         write_s = 0.0;
  {
    obs::TraceSession session;
    Scope span(&log, "setup");
    setup = run_setup(o, spec, &log, tally);
    span.close();
    kernels.add(session.finish().get());
    setup_wall_s = log.seconds(span.index());
    setup_pct = 100.0 * log.child_seconds(span.index()) / setup_wall_s;
    gen_s = log.child_seconds(span.index(), "datagen.generate");
    encode_s = log.child_seconds(span.index(), "compress.encode_plt");
    write_s = log.child_seconds(span.index(), "compress.write_blob_file");
  }
  const Reference ref = make_reference(setup, o.inject_wrong);

  // core::mine, traced and untraced repetitions interleaved, in alternating
  // order, so host drift and allocator warm-up land on both halves of the
  // overhead ratio.
  std::vector<double> untraced_s, traced_s, rank_ms, build_ms, loop_s, proj_s,
      mine_cover;
  core::ProjectionStats projection;
  double structure_bytes = 0.0, itemsets = 0.0;
  {
    Scope phase(&log, "mine.phase");
    const std::int64_t start = now_ns();
    auto untraced_rep = [&] {
      const std::int64_t t0 = now_ns();
      const core::MineResult result = run_mine(setup);
      untraced_s.push_back(seconds_since(t0));
      Digest digest;
      digest.add(result.itemsets);
      tally.check(digest == ref.digest, "core::mine output differs");
    };
    while (traced_s.size() < kMinMineReps || seconds_since(start) < 0.2 * T) {
      const bool untraced_first = traced_s.size() % 2 == 0;
      if (untraced_first) untraced_rep();
      obs::TraceSession session;
      Scope span(&log, "mine");
      const core::MineResult result = run_mine(setup);
      span.close();
      const auto tree = session.finish();
      const double wall_ns = log.seconds(span.index()) * 1e9;
      traced_s.push_back(wall_ns * 1e-9);
      const obs::TraceNode* algo = tree->descendant("mine/plt-conditional");
      const obs::TraceNode* loop =
          algo != nullptr ? algo->child("rank-loop") : nullptr;
      rank_ms.push_back(
          node_ns(algo ? algo->child("build-ranked-view") : nullptr) * 1e-6);
      build_ms.push_back(node_ns(algo ? algo->child("build-plt") : nullptr) * 1e-6);
      loop_s.push_back(self_ns(loop) * 1e-9);
      proj_s.push_back(self_ns(loop ? loop->child("projection") : nullptr) * 1e-9);
      mine_cover.push_back(100.0 * (node_ns(algo) - self_ns(algo)) / wall_ns);
      Digest digest;
      digest.add(result.itemsets);
      tally.check(digest == ref.digest, "traced core::mine output differs");
      if (traced_s.size() == 1) {
        kernels.add(tree.get());
        projection = result.projection;
        structure_bytes = static_cast<double>(result.structure_bytes);
        itemsets = static_cast<double>(result.itemsets.size());
      }
      if (!untraced_first) untraced_rep();
    }
  }
  const double overhead_pct =
      100.0 * (median(traced_s) / median(untraced_s) - 1.0);

  std::vector<double> cd_build_s, enum_s, cd_mb, steals, par_cover, par_wall;
  {
    Scope phase(&log, "mine_parallel.phase");
    par_wall = repeat(0.12 * T, 2, 1000, [&] {
      obs::TraceSession session;
      Scope span(&log, "mine_parallel");
      const core::MineResult result = run_mine_parallel(setup);
      span.close();
      const auto tree = session.finish();
      const double wall = log.seconds(span.index());
      cd_build_s.push_back(result.build_seconds);
      enum_s.push_back(result.mine_seconds);
      cd_mb.push_back(static_cast<double>(result.structure_bytes) / kMiB);
      steals.push_back(static_cast<double>(result.projection.steals));
      par_cover.push_back(100.0 * (result.build_seconds + result.mine_seconds) /
                          wall);
      tally.check(core::FrequentItemsets::equal(ref.itemsets, result.itemsets),
                  "traced mine_parallel output differs from core::mine");
      if (cd_build_s.size() == 1) kernels.add(tree.get());
      return wall;
    });
  }

  std::vector<double> split_s, workers_s, merge_s, imbalance, warmed,
      relaunches, shard_cover, shard_wall;
  double worker_peak = 0.0;
  {
    Scope phase(&log, "mine_sharded.phase");
    const std::string peaks = o.work_dir + "/worker-peaks";
    const std::vector<std::string> prefix = {
        std::filesystem::read_symlink("/proc/self/exe").string(),
        kRecordPeakFlag, peaks + "/peak-"};
    shard_wall = repeat(0.12 * T, 2, 1000, [&] {
      remove_tree(peaks);
      std::filesystem::create_directories(peaks);
      shard::ShardReport report;
      Scope span(&log, "mine_sharded");
      const bool ok = run_sharded(o, setup, ref, prefix, report);
      span.close();
      for (const auto& entry : std::filesystem::directory_iterator(peaks)) {
        std::ifstream in(entry.path());
        double bytes = 0.0;
        in >> bytes;
        worker_peak = std::max(worker_peak, bytes);
      }
      const double wall = log.seconds(span.index());
      tally.check(ok, "traced mine_sharded output differs from core::mine");
      split_s.push_back(report.split_seconds);
      workers_s.push_back(report.mine_seconds);
      merge_s.push_back(report.merge_seconds);
      std::vector<double> walls;
      double warm = 0.0;
      for (const shard::ShardSummary& summary : report.summaries) {
        walls.push_back(static_cast<double>(summary.wall_ns));
        warm += static_cast<double>(summary.warmed_ranks);
      }
      imbalance.push_back(walls.empty() ? 0.0
                                        : *std::max_element(walls.begin(),
                                                            walls.end()) /
                                              median(walls));
      warmed.push_back(warm);
      relaunches.push_back(static_cast<double>(report.relaunches));
      shard_cover.push_back(100.0 *
                            (report.split_seconds + report.mine_seconds +
                             report.merge_seconds) /
                            wall);
      return wall;
    });
  }
  const double worker_peak_mb = worker_peak / kMiB;

  std::vector<double> ooc_s;
  compress::OocStats ooc_stats;
  {
    Scope phase(&log, "mine_from_blob.phase");
    bool first = true;
    ooc_s = repeat(0.08 * T, 2, 1000, [&] {
      obs::TraceSession session;
      Scope span(&log, "compress.mine_from_blob");
      compress::OocStats stats;
      const bool ok = run_ooc(setup, ref, stats);
      span.close();
      const auto tree = session.finish();
      tally.check(ok, "mine_from_blob output differs from core::mine");
      if (first) {
        first = false;
        ooc_stats = stats;
        kernels.add(tree.get());
      }
      return log.seconds(span.index());
    });
  }

  const std::vector<double> index_ms = repeat(0.02 * T, 5, 10000, [&] {
    Scope span(&log, "compress.build_index");
    const compress::BlobIndex index =
        compress::build_index(setup.windows[0].blob);
    span.close();
    return log.seconds(span.index()) * 1e3;
  });
  const std::vector<double> load_ms = repeat(0.02 * T, 5, 10000, [&] {
    Scope span(&log, "serve.load_blob");
    const auto blob = serve::load_blob(setup.windows[0].path);
    span.close();
    return log.seconds(span.index()) * 1e3;
  });

  const auto blobs = load_blobs(setup);
  std::vector<double> engine_us[kQueryClasses];
  serve::QueryCounters counters;
  ServeBlocks serving(o, spec, setup);
  serving.warm_up(0.04 * T, tally);
  serving.block(0.2 * T, kMinQuerySamples, &log, tally);
  if (!spec.refresh) serving.idle_reloads(kMinReloads, 0.04 * T, &log, tally);
  ServeResult serve =
      serving.finish(blobs, kReplayedAnswers, o.inject_wrong, tally, engine_us);
  {
    // engine_us comes from the untraced replay above; this traced pass over
    // the same requests collects the engine's counters.
    obs::TraceSession session;
    Scope span(&log, "serve.engine_replay");
    replay_answers(serve.load, serve.replayed, blobs, false, nullptr, nullptr,
                   &counters);
    span.close();
    kernels.add(session.finish().get());
  }
  stop_daemon(setup, tally);
  print_latency_table(serve.load);

  // Round trip = server time + wire time; the server's share is the exact
  // mean from the stats opcode's per-class latency sums.
  double server_ns_total = 0.0, server_count = 0.0;
  for (int c = 0; c < kQueryClasses; ++c) {
    server_ns_total += static_cast<double>(serve.delta.latency_sum_ns[c]);
    server_count += static_cast<double>(serve.delta.latency_count[c]);
  }
  double rtt_us_total = 0.0, answered = 0.0;
  for (const QuerySample& sample : serve.load.samples) {
    if (!sample.ok) continue;
    rtt_us_total += static_cast<double>(sample.recv_ns - sample.send_ns) * 1e-3;
    answered += 1.0;
  }
  const double rtt_mean_us = answered > 0 ? rtt_us_total / answered : 0.0;
  const double server_mean_us =
      server_count > 0 ? server_ns_total / server_count * 1e-3 : 0.0;
  const double wire_us = rtt_mean_us - server_mean_us;
  std::cout << "reconcile query round trip: " << format_number(rtt_mean_us)
            << " us = server " << format_number(server_mean_us) << " us + wire "
            << format_number(wire_us) << " us\n";
  tally.check(wire_us >= 0.0, "server time exceeds the client round trip");

  const std::size_t replayed = serve.replayed.size();

  check_coverage(tally, "setup", setup_pct, setup_wall_s);
  check_coverage(tally, "mine", median(mine_cover), median(traced_s));
  check_coverage(tally, "mine_parallel", median(par_cover), median(par_wall));
  check_coverage(tally, "mine_sharded", median(shard_cover), median(shard_wall));

  log.write(o.trace_out);
  std::cout << "spans written to " << o.trace_out << '\n';

  auto per_query = [&](std::uint64_t total) {
    return replayed > 0 ? static_cast<double>(total) / static_cast<double>(replayed)
                        : 0.0;
  };
  metrics = {
      {"datagen.gen_s", gen_s, "s"},
      {"core.rank_ms", median(rank_ms), "ms"},
      {"core.build_ms", median(build_ms), "ms"},
      {"core.structure_mb", structure_bytes / kMiB, "MB"},
      {"core.rank_loop_s", median(loop_s), "s"},
      {"core.projection_s", median(proj_s), "s"},
      {"core.projections", static_cast<double>(projection.projections_built), "count"},
      {"core.entries_projected", static_cast<double>(projection.entries_projected), "count"},
      {"core.fresh_allocations", static_cast<double>(projection.fresh_allocations), "count"},
      {"core.itemsets", itemsets, "count"},
  };
  for (const char* name : kKernelCounters) {
    const std::string counter = name;
    const bool bytes = counter.size() > 6 &&
                       counter.compare(counter.size() - 6, 6, ".bytes") == 0;
    metrics.push_back({counter, kernels.totals[counter], bytes ? "B" : "count"});
  }
  const std::vector<Metric> rest = {
      {"compress.encode_ms", encode_s * 1e3, "ms"},
      {"compress.write_ms", write_s * 1e3, "ms"},
      {"compress.index_ms", median(index_ms), "ms"},
      {"compress.ooc_mine_s", median(ooc_s), "s"},
      {"compress.ooc_bytes_decoded", static_cast<double>(ooc_stats.bytes_decoded), "B"},
      {"compress.ooc_overlay_mb", static_cast<double>(ooc_stats.peak_overlay_bytes) / kMiB, "MB"},
      {"parallel.cd_build_s", median(cd_build_s), "s"},
      {"parallel.enum_s", median(enum_s), "s"},
      {"parallel.cd_mb", median(cd_mb), "MB"},
      {"parallel.steals", median(steals), "count"},
      {"shard.split_s", median(split_s), "s"},
      {"shard.workers_s", median(workers_s), "s"},
      {"shard.merge_s", median(merge_s), "s"},
      {"shard.imbalance", median(imbalance), "ratio"},
      {"shard.warmed_ranks", median(warmed), "count"},
      {"shard.worker_peak_mb", worker_peak_mb, "MB"},
      {"shard.relaunches", median(relaunches), "count"},
      {"serve.load_ms", median(load_ms), "ms"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  for (int c = 0; c < kQueryClasses; ++c)
    metrics.push_back({std::string("serve.engine_us.") + kClassNames[c],
                       engine_us[c].empty() ? 0.0 : median(engine_us[c]), "us"});
  metrics.push_back({"serve.buckets_per_query", per_query(counters.buckets_scanned), "count"});
  metrics.push_back({"serve.entries_per_query", per_query(counters.entries_tested), "count"});
  for (int c = 0; c < kQueryClasses; ++c) {
    const double count = static_cast<double>(serve.delta.latency_count[c]);
    metrics.push_back(
        {std::string("serve.server_us.") + kClassNames[c],
         count > 0 ? static_cast<double>(serve.delta.latency_sum_ns[c]) / count * 1e-3
                   : 0.0,
         "us"});
  }
  std::uint64_t deadline = 0;
  for (const std::uint64_t d : serve.delta.deadline_exceeded) deadline += d;
  const std::vector<double> all_us = latencies_us(serve.load, -1);
  std::size_t answered_ok = 0;
  for (const QuerySample& sample : serve.load.samples) answered_ok += sample.ok;
  const std::vector<Metric> tail = {
      {"serve.query_rps",
       static_cast<double>(answered_ok) / serve.load.window_seconds, "req/s"},
      {"serve.query_p50_us", quantile(all_us, 0.50).value, "us"},
      {"serve.query_p99_us", quantile(all_us, 0.99).value, "us"},
      {"serve.wire_us", wire_us, "us"},
      {"serve.batch_share",
       serve.delta.total_requests > 0
           ? static_cast<double>(serve.delta.batched_requests) /
                 static_cast<double>(serve.delta.total_requests)
           : 0.0,
       "ratio"},
      {"serve.overloaded", static_cast<double>(serve.delta.overloaded), "count"},
      {"serve.deadline_exceeded", static_cast<double>(deadline), "count"},
      {"obs.trace_overhead_pct", overhead_pct, "%"},
      {"recon.setup_pct", setup_pct, "%"},
      {"recon.mine_pct", median(mine_cover), "%"},
      {"recon.mine_par_pct", median(par_cover), "%"},
      {"recon.shard_pct", median(shard_cover), "%"},
  };
  metrics.insert(metrics.end(), tail.begin(), tail.end());
  return metrics;
}

/// Runs argv[3..] as a child, writes the child's peak RSS in bytes to the
/// file argv[2] + its pid, and exits with the child's status. The traced
/// run prefixes shard workers with this: a worker forked from this small
/// process reports its own peak, not the coordinator's address space that
/// a fork straight from the coordinator would carry until exec.
int record_peak_rss(int argc, char** argv) {
  if (argc < 4) return 2;
  const pid_t pid = ::fork();
  if (pid < 0) return 127;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::execv(argv[3], argv + 3);
    ::_exit(127);
  }
  int status = 0;
  rusage usage{};
  if (::wait4(pid, &status, 0, &usage) != pid) return 127;
  std::ofstream out(std::string(argv[2]) + std::to_string(::getpid()));
  out << static_cast<std::uint64_t>(usage.ru_maxrss) * 1024 << '\n';
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == kRecordPeakFlag)
    return record_peak_rss(argc, argv);
  try {
    const Options o = parse_options(argc, argv);
    const WorkloadSpec& spec = workload(o.workload);
    std::filesystem::create_directories(o.work_dir);
    const CpuTimes cpu_start = read_cpu_times();
    Tally tally;
    const std::vector<Metric> metrics =
        o.trace ? run_traced(o, spec, tally) : run_end_to_end(o, spec, tally);
    const CpuTimes cpu_end = read_cpu_times();

    std::cout << "stamp {\"workload\": " << json_string(o.workload)
              << ", \"seed\": " << o.seed << ", \"trace\": " << o.trace
              << ", \"nproc\": " << online_cpus()
              << ", \"cpu\": " << json_string(cpu_model())
              << ", \"kernel_backend\": "
              << json_string(kernels::active().name)
              << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
              << ", \"source\": " << json_string(o.source)
              << ", \"steal_share\": "
              << format_number(steal_share(cpu_start, cpu_end)) << "}\n";
    std::vector<Metric> bounded;
    for (const Metric& m : metrics) {
      const bool unbounded =
          std::find(std::begin(kUnboundedMetrics), std::end(kUnboundedMetrics),
                    m.name) != std::end(kUnboundedMetrics);
      std::cout << "metric " << m.name << " = " << format_number(m.value) << ' '
                << m.unit << (unbounded ? " (printed only, no bound)" : "")
                << '\n';
      if (!unbounded) bounded.push_back(m);
    }
    std::cout << "failed operations: " << tally.failed() << " of "
              << tally.attempted() << '\n';
    std::cout << result_json(tally.failed() == 0, tally.attempted(),
                             tally.failed(), bounded)
              << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "plt-perfbench: " << error.what() << '\n';
    return 1;
  }
}
