// E18 — vectorized kernel layer: per-kernel scalar-vs-AVX2 micro rows for
// the sorted intersections, plus the end-to-end
// mine() speedup the kernels buy on the dense sweeps. Every SIMD
// measurement is differentially checked against the scalar reference
// in-line (checksums must match — contract rule #1), and the end-to-end
// section verifies the mined itemsets are identical across backends, so
// this binary doubles as a coarse correctness gate. Writes BENCH_kernels.json
// with the host stamp.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/miner.hpp"
#include "harness/backend.hpp"
#include "harness/datasets.hpp"
#include "harness/report.hpp"
#include "harness/tracing.hpp"
#include "kernels/kernels.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace plt;

// ---------------------------------------------------------------------------
// Micro harness

struct MicroCase {
  std::string kernel;
  std::size_t elements = 0;  ///< elements processed per timed call
  // One timed call against the given backend; the checksum must be
  // backend-independent (differential check) and keeps the work alive.
  std::function<std::uint64_t(const kernels::Dispatch&)> call;
};

struct MicroRow {
  std::string kernel;
  std::string backend;
  std::size_t elements = 0;
  double seconds = 0.0;         ///< per call, best of 3
  double scalar_seconds = 0.0;  ///< scalar reference, same machine state
  double speedup = 0.0;
};

// Calibrates a repetition count to ~20ms then reports best-of-3 seconds per
// call. The checksum of the last call is returned through `checksum`.
double time_case(const MicroCase& c, const kernels::Dispatch& d,
                 std::uint64_t& checksum) {
  std::size_t reps = 1;
  for (;;) {
    Timer t;
    for (std::size_t r = 0; r < reps; ++r) checksum = c.call(d);
    const double s = t.seconds();
    if (s >= 0.02 || reps >= (std::size_t{1} << 24)) break;
    reps *= 2;
  }
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    for (std::size_t r = 0; r < reps; ++r) checksum = c.call(d);
    const double s = t.seconds() / static_cast<double>(reps);
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

std::size_t scaled(double scale, std::size_t base) {
  const auto n = static_cast<std::size_t>(static_cast<double>(base) * scale);
  return std::max<std::size_t>(n, 64);
}

// Strictly increasing u32 list of length n (tidlist-shaped): the universe
// walk comes from `universe` and membership from `membership`, so two lists
// built with the same universe seed but different membership seeds overlap
// the way two independent items' tidlists do (P(match) = keep^2) — the
// data-dependent branch in a scalar merge is then genuinely unpredictable,
// as it is in Eclat, instead of degenerately correlated.
std::vector<std::uint32_t> sorted_list(Rng& universe, Rng& membership,
                                       std::size_t n, double keep) {
  std::vector<std::uint32_t> v;
  v.reserve(n);
  std::uint32_t x = 0;
  while (v.size() < n) {
    x += 1 + static_cast<std::uint32_t>(universe.next_below(3));
    if (membership.next_bool(keep)) v.push_back(x);
  }
  return v;
}

// ---------------------------------------------------------------------------
// End-to-end harness

struct EndToEndRow {
  std::string dataset;
  std::string algorithm;
  Count minsup = 0;
  std::size_t frequent = 0;
  double scalar_seconds = 0.0;
  double simd_seconds = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

// Mines on `backend`, then restores the process backend the run started
// with (the --backend flag's choice for the rest of the report).
double time_mine(const tdb::Database& db, Count minsup,
                 core::Algorithm algorithm, kernels::Backend backend,
                 core::FrequentItemsets& out) {
  const kernels::Backend before = kernels::active().backend;
  kernels::set_backend(backend);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    core::MineResult result = core::mine(db, minsup, algorithm);
    const double s = t.seconds();
    if (rep == 0 || s < best) best = s;
    out = std::move(result.itemsets);
  }
  kernels::set_backend(before);
  return best;
}

void write_json(const std::string& path, double scale,
                const std::vector<MicroRow>& micro,
                const std::vector<EndToEndRow>& e2e,
                const std::string& trace_summary) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"E18\",\n"
      << "  \"title\": \"vectorized kernel layer: scalar vs SIMD\",\n"
      << "  \"host\": " << harness::host_json() << ",\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"best_backend\": \""
      << kernels::backend_name(kernels::best_supported()) << "\",\n";
  if (!trace_summary.empty())
    out << "  \"trace\": " << trace_summary << ",\n";
  out << "  \"micro\": [\n";
  for (std::size_t i = 0; i < micro.size(); ++i) {
    const MicroRow& r = micro[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"backend\": \""
        << r.backend << "\", \"elements\": " << r.elements
        << ", \"seconds_per_call\": " << r.seconds
        << ", \"scalar_seconds_per_call\": " << r.scalar_seconds
        << ", \"speedup\": " << r.speedup << "}"
        << (i + 1 < micro.size() ? "," : "") << '\n';
  }
  out << "  ],\n  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const EndToEndRow& r = e2e[i];
    out << "    {\"dataset\": \"" << r.dataset << "\", \"algorithm\": \""
        << r.algorithm << "\", \"minsup\": " << r.minsup
        << ", \"frequent_itemsets\": " << r.frequent
        << ", \"scalar_seconds\": " << r.scalar_seconds
        << ", \"simd_seconds\": " << r.simd_seconds
        << ", \"speedup\": " << r.speedup
        << ", \"identical_output\": " << (r.identical ? "true" : "false")
        << "}" << (i + 1 < e2e.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (!harness::apply_backend_flag(args)) return 2;
  harness::TraceScope trace_scope(args);
  const double scale = args.get_double("scale", 1.0);
  const std::string out_path = args.get("out", "BENCH_kernels.json");

  harness::print_banner(std::cout, "E18",
                        "vectorized kernel layer: scalar vs AVX2",
                        "section 6 (hot-loop throughput) — runtime-dispatched "
                        "kernels");

  bool all_agree = true;

  // -------------------------------------------------------------- inputs
  const std::size_t n_tids = scaled(scale, std::size_t{1} << 18);

  Rng universe_a(7), universe_b(7), keep_a(100), keep_b(101);
  const auto tids_a = sorted_list(universe_a, keep_a, n_tids, 0.5);
  const auto tids_b = sorted_list(universe_b, keep_b, n_tids, 0.5);
  Rng universe_c(7), keep_c(102);
  const auto tids_small = sorted_list(
      universe_c, keep_c, std::max<std::size_t>(n_tids / 256, 16), 0.05);
  std::vector<std::uint32_t> isect_out(std::min(tids_a.size(), tids_b.size()) + 4);

  const MicroCase cases[] = {
      {"intersect_sorted", tids_a.size() + tids_b.size(),
       [&](const kernels::Dispatch& d) {
         const std::size_t m =
             d.intersect_sorted(tids_a.data(), tids_a.size(), tids_b.data(),
                                tids_b.size(), isect_out.data());
         return std::uint64_t{m} ^ (m > 0 ? isect_out[m / 2] : 0u);
       }},
      {"intersect_count", tids_a.size() + tids_b.size(),
       [&](const kernels::Dispatch& d) {
         return std::uint64_t{d.intersect_count(
             tids_a.data(), tids_a.size(), tids_b.data(), tids_b.size())};
       }},
      {"intersect_gallop", tids_small.size() + tids_b.size(),
       [&](const kernels::Dispatch& d) {
         return std::uint64_t{d.intersect_count(
             tids_small.data(), tids_small.size(), tids_b.data(),
             tids_b.size())};
       }},
  };

  std::vector<const kernels::Dispatch*> backends;
  backends.push_back(&kernels::scalar_dispatch());
  if (const kernels::Dispatch* d =
          kernels::dispatch_for(kernels::Backend::kAVX2))
    backends.push_back(d);

  std::vector<MicroRow> micro;
  Table table({"kernel", "backend", "elements", "s/call", "Melem/s",
               "speedup"});
  for (const MicroCase& c : cases) {
    std::uint64_t scalar_sum = 0;
    const double scalar_s =
        time_case(c, kernels::scalar_dispatch(), scalar_sum);
    for (const kernels::Dispatch* d : backends) {
      std::uint64_t sum = 0;
      const double s = time_case(c, *d, sum);
      if (sum != scalar_sum) {
        std::cerr << "CHECKSUM MISMATCH: " << c.kernel << " on " << d->name
                  << " (" << sum << " != " << scalar_sum << ")\n";
        all_agree = false;
      }
      MicroRow row;
      row.kernel = c.kernel;
      row.backend = d->name;
      row.elements = c.elements;
      row.seconds = s;
      row.scalar_seconds = scalar_s;
      row.speedup = s > 0 ? scalar_s / s : 0.0;
      micro.push_back(row);
      table.add_row({c.kernel, d->name, std::to_string(c.elements),
                     format_duration(s),
                     std::to_string(static_cast<double>(c.elements) /
                                    (s * 1e6)),
                     std::to_string(row.speedup)});
    }
  }
  std::cout << table.to_text();

  // ------------------------------------------------------- end to end
  const struct {
    const char* dataset;
    double fraction;
  } sweeps[] = {
      {"chess-like", 0.70},
      {"chess-like", 0.60},
      {"mushroom-like", 0.20},
      {"mushroom-like", 0.10},
  };
  const struct {
    core::Algorithm algorithm;
    const char* name;
  } algos[] = {
      {core::Algorithm::kPltConditional, "plt-conditional"},
      {core::Algorithm::kEclat, "eclat"},
  };

  std::vector<EndToEndRow> e2e;
  Table e2e_table({"dataset", "algorithm", "minsup", "frequent", "scalar",
                   "simd", "speedup", "identical"});
  for (const auto& sweep : sweeps) {
    const auto db = harness::scaled_dataset(sweep.dataset, scale);
    const auto grid = harness::support_grid(db, {sweep.fraction});
    if (grid.empty()) continue;
    const Count minsup = grid.front();
    for (const auto& algo : algos) {
      core::FrequentItemsets scalar_out, simd_out;
      const double scalar_s = time_mine(
          db, minsup, algo.algorithm, kernels::Backend::kScalar, scalar_out);
      const double simd_s = time_mine(db, minsup, algo.algorithm,
                                      kernels::best_supported(), simd_out);
      EndToEndRow row;
      row.dataset = sweep.dataset;
      row.algorithm = algo.name;
      row.minsup = minsup;
      row.frequent = simd_out.size();
      row.scalar_seconds = scalar_s;
      row.simd_seconds = simd_s;
      row.speedup = simd_s > 0 ? scalar_s / simd_s : 0.0;
      row.identical = core::FrequentItemsets::equal(scalar_out, simd_out);
      if (!row.identical) {
        std::cerr << "DISAGREEMENT: " << row.dataset << " " << row.algorithm
                  << " minsup=" << minsup << "\n";
        all_agree = false;
      }
      e2e.push_back(row);
      e2e_table.add_row({row.dataset, row.algorithm, std::to_string(minsup),
                         std::to_string(row.frequent),
                         format_duration(scalar_s), format_duration(simd_s),
                         std::to_string(row.speedup),
                         row.identical ? "yes" : "NO"});
    }
  }
  std::cout << '\n' << e2e_table.to_text();

  // With --trace the run-wide session saw the end-to-end mines (the micro
  // loops call raw dispatch entries, which record nothing): finish it so
  // the kernel call/byte counters ride along in the report.
  std::string trace_summary;
  if (trace_scope.active()) {
    trace_scope.write();
    trace_summary = harness::trace_summary_json(*trace_scope.root());
  }
  write_json(out_path, scale, micro, e2e, trace_summary);
  std::cout << "\nWrote " << out_path << ".\n"
            << "Expected shape: the SIMD rows beat scalar on the\n"
            << "merge-bound intersections (not galloping); every\n"
            << "backend produces identical checksums and\n"
            << "identical mined itemsets (contract rule #1).\n";
  return all_agree ? 0 : 1;
}
