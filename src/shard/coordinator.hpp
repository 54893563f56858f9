// Shard-parallel mining across processes (S26): the coordinator side.
//
// The pipeline has three phases, each its own span and each usable alone
// (plt-shard exposes them for ssh-style launchers that run workers on
// other hosts against a shipped job directory):
//
//   prepare_job  — build the PLT once, serialize it as the PLT3 blob, and
//                  write the job manifest: shard windows balanced by
//                  per-partition work weights (computed here and not
//                  shipped), and the rank->item map.
//   run_workers  — fan out one process per shard (fork/exec of
//                  `plt-shard --worker`, or a caller-supplied launcher),
//                  supervise them, and survive failures: a worker that
//                  exits non-zero or blows its per-attempt deadline
//                  (MiningControl-based) is killed and relaunched, and the
//                  relaunch resumes from the shard's rank-granular
//                  checkpoint log — at most the in-flight rank is re-mined.
//   merge_job    — replay the per-shard checkpoint logs in shard order.
//                  Shards tile max_rank..1 contiguously and each log holds
//                  its window's emissions in rank order, so the merged
//                  stream is byte-identical to a single-process
//                  mine_from_blob at every support (tests enforce it,
//                  including after injected worker kills).
//
// mine_sharded composes all three. The blob is the exchange format; the
// checkpoint logs are both the crash-recovery journal and the result
// channel, so no second result format exists to drift.
//
// Inside a caller's obs::TraceSession, mine_sharded records "shard-mine"
// with "shard-split", "shard-wait" > "shard-launch" and "shard-merge"
// under it. The workers run in processes of their own and record nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/exec_control.hpp"
#include "core/itemset_collector.hpp"
#include "obs/histogram.hpp"
#include "shard/spec.hpp"
#include "tdb/database.hpp"
#include "tdb/remap.hpp"

namespace plt::shard {

/// Launches one worker attempt. `argv` is the complete command line
/// (argv[0] = program); `extra_env` holds additional "KEY=VALUE" entries
/// for this attempt only. Returns the child pid (the coordinator reaps it
/// with waitpid), or throws std::runtime_error when spawning fails.
using Launcher = std::function<int(const std::vector<std::string>& argv,
                                   const std::vector<std::string>& extra_env)>;

struct ShardOptions {
  /// Worker processes to fan out to (= shard count; clamped to max_rank).
  std::size_t workers = 2;
  /// Job directory for the blob, manifest, per-shard logs and summaries.
  /// Created if missing. Required.
  std::string dir;
  /// Path of the plt-shard binary the default fork/exec launcher runs with
  /// `--worker`. Required unless `launcher` is set.
  std::string worker_binary;
  /// Prepended to the worker command line — the NUMA/affinity hook
  /// (e.g. {"taskset", "-c", "0-3"} or {"numactl", "--cpunodebind=0"}).
  std::vector<std::string> launch_prefix;
  /// Replaces the default fork/exec spawn when set (tests use an
  /// in-process fork; remote setups can wrap ssh).
  Launcher launcher;
  /// Per-attempt wall-clock deadline, enforced through a MiningControl per
  /// attempt: a worker that outlives it is SIGKILLed and relaunched.
  /// Zero = unlimited.
  std::chrono::nanoseconds attempt_timeout{0};
  /// Total attempts per shard (first launch included) before the job fails.
  std::size_t max_launch_attempts = 3;
  /// Extra environment for each shard's *first* attempt only — the
  /// failpoint-injection hook (e.g. "PLT_FAILPOINTS=ooc.rank=oneshot:2"
  /// kills the first worker mid-run; the relaunch runs clean and resumes).
  std::vector<std::string> extra_env_first_attempt;
  /// Caller-side cancellation/deadline: when it trips, every live worker
  /// is killed and the latched status comes back. Null = unlimited.
  const core::MiningControl* control = nullptr;
};

struct ShardReport {
  std::size_t shards = 0;
  std::uint64_t attempts = 0;    ///< worker launches, relaunches included
  std::uint64_t relaunches = 0;  ///< launches beyond each shard's first
  double split_seconds = 0.0;    ///< build + encode + write blob/manifest
  double mine_seconds = 0.0;     ///< launch + supervise wall time
  double merge_seconds = 0.0;    ///< ordered checkpoint replay
  std::uint64_t blob_bytes = 0;
  std::uint64_t itemsets = 0;    ///< merged emissions
  Rank max_rank = 0;
  /// Per-shard worker reports in shard order (present after merge).
  std::vector<ShardSummary> summaries;
  /// Distribution of per-shard worker wall times (from the summaries) —
  /// the E21 balance signal.
  obs::LatencyHistogram shard_wall;
};

/// Phase 1: builds the PLT, writes blob + manifest into options.dir and
/// returns the manifest. Throws std::invalid_argument on an empty dir or
/// zero workers, std::runtime_error on I/O failure.
Manifest prepare_job(const tdb::Database& db, Count min_support,
                     const ShardOptions& options);

/// The worker command line for one shard (launch_prefix included) — what
/// the default launcher runs, exposed for --emit-commands.
std::vector<std::string> worker_command(const ShardOptions& options,
                                        std::size_t shard_id);

/// Phase 2: fans out and supervises one worker per shard. Returns
/// kCompleted when every shard's summary landed, or the caller control's
/// latched status after killing the workers. Throws std::runtime_error
/// when a shard exhausts max_launch_attempts.
core::MineStatus run_workers(const Manifest& manifest,
                             const ShardOptions& options,
                             ShardReport* report = nullptr);

/// Phase 3: replays the per-shard checkpoint logs of the job in `dir`
/// through `sink` in shard order. Throws std::runtime_error when a log is
/// missing, bound to different inputs, or incomplete for its window.
core::MineStatus merge_job(const std::string& dir,
                           const core::ItemsetSink& sink,
                           ShardReport* report = nullptr);

/// The full pipeline: prepare, fan out, merge. Emissions through `sink`
/// are byte-identical (content and order) to single-process
/// mine_from_blob over the same blob, hence equal as a set to core::mine.
core::MineStatus mine_sharded(const tdb::Database& db, Count min_support,
                              const core::ItemsetSink& sink,
                              const ShardOptions& options,
                              ShardReport* report = nullptr);

}  // namespace plt::shard
