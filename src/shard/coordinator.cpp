#include "shard/coordinator.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "compress/checkpoint.hpp"
#include "compress/codec.hpp"
#include "core/builder.hpp"
#include "obs/trace.hpp"
#include "util/crc32c.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

extern char** environ;

namespace plt::shard {

namespace {

// Default spawn: fork + execvpe of the assembled command line, inheriting
// the coordinator's environment plus the attempt's extra entries (the
// failpoint-injection channel — the worker parses PLT_FAILPOINTS at first
// registry use, so an armed point fires inside the child only).
int default_spawn(const std::vector<std::string>& argv,
                  const std::vector<std::string>& extra_env) {
  std::vector<char*> argv_ptrs;
  argv_ptrs.reserve(argv.size() + 1);
  for (const std::string& arg : argv)
    argv_ptrs.push_back(const_cast<char*>(arg.c_str()));
  argv_ptrs.push_back(nullptr);

  std::vector<char*> env_ptrs;
  for (char** e = environ; *e != nullptr; ++e) env_ptrs.push_back(*e);
  for (const std::string& entry : extra_env)
    env_ptrs.push_back(const_cast<char*>(entry.c_str()));
  env_ptrs.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("plt-shard: fork failed");
  if (pid == 0) {
    // execvpe only returns on failure, and the unconditional _exit below
    // is the handling. plt-lint: allow(syscall-check)
    ::execvpe(argv_ptrs[0], argv_ptrs.data(), env_ptrs.data());
    // exec failed; _exit avoids running the parent's atexit/streams state.
    ::_exit(127);
  }
  return static_cast<int>(pid);
}

// One shard's supervision state. The deadline control is per attempt: a
// fresh MiningControl with attempt_timeout latched is created at launch,
// and its should_stop() is the timeout detector in the poll loop.
//
// Concurrency contract: the coordinator is single-threaded — the slot
// table is created, polled and mutated only on the run_workers() thread,
// so there is no lock to annotate; cross-process coordination happens
// through waitpid and the checkpoint files, not shared memory.
struct WorkerSlot {
  ShardSpec spec;
  int pid = -1;
  std::size_t attempts = 0;
  bool done = false;
  core::MiningControl deadline;
};

void kill_slot(WorkerSlot& slot) {
  if (slot.pid < 0) return;
  // ESRCH means the worker already exited; the blocking waitpid below
  // still reaps it either way.
  if (::kill(slot.pid, SIGKILL) != 0 && errno != ESRCH)
    log_warn() << "plt-shard: kill(" << slot.pid
               << ") failed: " << std::strerror(errno);
  int ignored = 0;
  if (::waitpid(slot.pid, &ignored, 0) < 0)
    log_warn() << "plt-shard: waitpid(" << slot.pid
               << ") failed: " << std::strerror(errno);
  slot.pid = -1;
}

}  // namespace

Manifest prepare_job(const tdb::Database& db, Count min_support,
                     const ShardOptions& options) {
  if (options.dir.empty())
    throw std::invalid_argument("prepare_job: job directory required");
  if (options.workers == 0)
    throw std::invalid_argument("prepare_job: need at least one worker");
  std::filesystem::create_directories(options.dir);

  PLT_SPAN("shard-split");
  const core::BuiltPlt built =
      core::build_from_database(db, min_support, options.item_order);
  const auto max_rank = static_cast<Rank>(built.view.alphabet());

  const auto blob = compress::encode_plt(built.plt);
  compress::write_blob_file(blob, blob_path(options.dir));

  Manifest manifest;
  manifest.blob_crc = crc32c(blob);
  manifest.min_support = min_support;
  manifest.max_rank = max_rank;
  manifest.item_of.reserve(max_rank);
  for (Rank r = 1; r <= max_rank; ++r)
    manifest.item_of.push_back(built.view.item_of(r));
  if (max_rank > 0)
    manifest.shards = split_shards(rank_weights(built.view.db, max_rank),
                                   max_rank, options.workers);
  compress::write_blob_file(encode_manifest(manifest),
                            manifest_path(options.dir));
  PLT_TRACE_COUNT("shard.workers", manifest.shards.size());
  return manifest;
}

std::vector<std::string> worker_command(const ShardOptions& options,
                                        std::size_t shard_id) {
  std::vector<std::string> argv = options.launch_prefix;
  argv.push_back(options.worker_binary.empty() ? "plt-shard"
                                               : options.worker_binary);
  argv.push_back("--worker");
  argv.push_back("--dir");
  argv.push_back(options.dir);
  argv.push_back("--shard");
  argv.push_back(std::to_string(shard_id));
  return argv;
}

core::MineStatus run_workers(const Manifest& manifest,
                             const ShardOptions& options,
                             ShardReport* report) {
  if (!options.launcher && options.worker_binary.empty())
    throw std::invalid_argument(
        "run_workers: worker_binary (or a custom launcher) required");

  std::vector<WorkerSlot> slots;
  slots.reserve(manifest.shards.size());
  for (const ShardSpec& spec : manifest.shards) {
    WorkerSlot slot;
    slot.spec = spec;
    slots.push_back(std::move(slot));
  }

  const auto launch = [&](WorkerSlot& slot) {
    PLT_SPAN("shard-launch");
    const auto argv = worker_command(options, slot.spec.shard_id);
    const std::vector<std::string> no_env;
    const std::vector<std::string>& env =
        slot.attempts == 0 ? options.extra_env_first_attempt : no_env;
    slot.pid = options.launcher ? options.launcher(argv, env)
                                : default_spawn(argv, env);
    ++slot.attempts;
    PLT_TRACE_COUNT("shard.attempts", 1);
    if (slot.attempts > 1) PLT_TRACE_COUNT("shard.relaunches", 1);
    if (report != nullptr) {
      ++report->attempts;
      if (slot.attempts > 1) ++report->relaunches;
    }
    slot.deadline = core::MiningControl();
    if (options.attempt_timeout.count() > 0)
      slot.deadline.set_deadline_after(options.attempt_timeout);
  };

  // A dead attempt (non-zero exit or SIGKILLed on timeout) either
  // relaunches — the new worker resumes from the shard's checkpoint log —
  // or, with the attempt budget spent, fails the whole job.
  const auto relaunch_or_fail = [&](WorkerSlot& slot) {
    if (slot.attempts >= options.max_launch_attempts) {
      for (WorkerSlot& other : slots) kill_slot(other);
      throw std::runtime_error(
          "run_workers: shard " + std::to_string(slot.spec.shard_id) +
          " failed after " + std::to_string(slot.attempts) + " attempts");
    }
    launch(slot);
  };

  PLT_SPAN("shard-wait");
  for (WorkerSlot& slot : slots) launch(slot);

  std::size_t remaining = slots.size();
  while (remaining > 0) {
    if (options.control != nullptr && options.control->should_stop(0)) {
      for (WorkerSlot& slot : slots) kill_slot(slot);
      return options.control->status();
    }
    bool progressed = false;
    for (WorkerSlot& slot : slots) {
      if (slot.done || slot.pid < 0) continue;
      int wait_status = 0;
      const pid_t reaped = ::waitpid(slot.pid, &wait_status, WNOHANG);
      if (reaped == slot.pid) {
        slot.pid = -1;
        if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0) {
          slot.done = true;
          --remaining;
        } else {
          relaunch_or_fail(slot);
        }
        progressed = true;
      } else if (options.attempt_timeout.count() > 0 &&
                 slot.deadline.should_stop(0)) {
        kill_slot(slot);
        relaunch_or_fail(slot);
        progressed = true;
      }
    }
    if (!progressed && remaining > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return core::MineStatus::kCompleted;
}

core::MineStatus merge_job(const std::string& dir,
                           const core::ItemsetSink& sink,
                           ShardReport* report) {
  PLT_SPAN("shard-merge");
  const Manifest manifest =
      decode_manifest(compress::read_blob_file(manifest_path(dir)));

  std::uint64_t merged = 0;
  std::uint64_t bytes_decoded = 0;
  for (const ShardSpec& spec : manifest.shards) {
    const std::uint32_t binding = compress::window_binding_crc(
        manifest.blob_crc, spec.rank_lo, spec.rank_hi, manifest.max_rank);
    compress::CheckpointLog log;
    if (!compress::read_checkpoint(checkpoint_path(dir, spec.shard_id),
                                   binding, manifest.min_support,
                                   spec.rank_hi, log))
      throw std::runtime_error(
          "merge_job: shard " + std::to_string(spec.shard_id) +
          " checkpoint log missing or bound to different inputs");
    const auto window =
        static_cast<std::size_t>(spec.rank_hi - spec.rank_lo + 1);
    if (log.records.size() != window)
      throw std::runtime_error(
          "merge_job: shard " + std::to_string(spec.shard_id) +
          " log incomplete (" + std::to_string(log.records.size()) + " of " +
          std::to_string(window) + " ranks)");
    // Records were validated to descend contiguously from rank_hi, and the
    // shards tile max_rank..1 in shard order — replaying them here IS the
    // single-process emission order.
    for (const compress::CheckpointRecord& record : log.records) {
      record.itemsets.replay(sink);
      merged += record.itemsets.size();
    }
    // The summary is the worker's completion certificate (written
    // atomically, after the mine): require it even though the emissions
    // above came from the log alone.
    const ShardSummary summary = decode_summary(
        compress::read_blob_file(summary_path(dir, spec.shard_id)));
    bytes_decoded += summary.bytes_decoded;
    if (report != nullptr) {
      report->shard_wall.record(summary.wall_ns);
      report->summaries.push_back(summary);
    }
  }
  PLT_TRACE_COUNT("shard.itemsets", merged);
  PLT_TRACE_COUNT("shard.bytes-decoded", bytes_decoded);
  if (report != nullptr) {
    report->shards = manifest.shards.size();
    report->max_rank = manifest.max_rank;
    report->itemsets += merged;
  }
  return core::MineStatus::kCompleted;
}

core::MineStatus mine_sharded(const tdb::Database& db, Count min_support,
                              const core::ItemsetSink& sink,
                              const ShardOptions& options,
                              ShardReport* report) {
  PLT_ASSERT(min_support >= 1, "min_support must be >= 1");
  PLT_SPAN("shard-mine");
  Timer split_timer;
  const Manifest manifest = prepare_job(db, min_support, options);
  if (report != nullptr) {
    report->split_seconds = split_timer.seconds();
    report->blob_bytes =
        static_cast<std::uint64_t>(
            std::filesystem::file_size(blob_path(options.dir)));
    report->max_rank = manifest.max_rank;
    report->shards = manifest.shards.size();
  }

  Timer mine_timer;
  core::MineStatus status = run_workers(manifest, options, report);
  if (report != nullptr) report->mine_seconds = mine_timer.seconds();
  if (status == core::MineStatus::kCompleted) {
    Timer merge_timer;
    status = merge_job(options.dir, sink, report);
    if (report != nullptr) report->merge_seconds = merge_timer.seconds();
  }
  return status;
}

}  // namespace plt::shard
