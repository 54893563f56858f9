#include "harness/report.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <thread>

#include "kernels/kernels.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace plt::harness {

std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos &&
        colon + 2 <= line.size()) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + cpu + "\", \"backend\": \"" +
         kernels::active().name + "\"}";
}

void print_banner(std::ostream& os, const std::string& experiment_id,
                  const std::string& title, const std::string& paper_anchor) {
  os << '\n'
     << "==== " << experiment_id << ": " << title << " ====\n"
     << "     paper anchor: " << paper_anchor << '\n';
}

void print_sweep(std::ostream& os, const std::string& title,
                 const std::vector<Cell>& cells, bool csv) {
  os << "-- " << title << " --\n";
  Table table({"dataset", "minsup", "algorithm", "build", "mine", "total",
               "structure", "frequent", "maxlen", "status"});
  for (const Cell& cell : cells) {
    table.add_row({cell.dataset, std::to_string(cell.min_support),
                   core::algorithm_name(cell.algorithm),
                   format_duration(cell.build_seconds),
                   format_duration(cell.mine_seconds),
                   format_duration(cell.total_seconds),
                   format_bytes(cell.structure_bytes),
                   std::to_string(cell.frequent_itemsets),
                   std::to_string(cell.max_length),
                   cell.failed ? "GUARD" : "ok"});
  }
  os << table.to_text();
  if (csv) os << "\ncsv:\n" << table.to_csv();
}

void print_winners(std::ostream& os, const std::vector<Cell>& cells) {
  std::map<Count, const Cell*> best;
  for (const Cell& cell : cells) {
    if (cell.failed) continue;
    auto& slot = best[cell.min_support];
    if (!slot || cell.total_seconds < slot->total_seconds) slot = &cell;
  }
  os << "winners by total time:\n";
  for (const auto& [support, cell] : best) {
    os << "  minsup " << support << ": "
       << core::algorithm_name(cell->algorithm) << " ("
       << format_duration(cell->total_seconds) << ")\n";
  }
}

}  // namespace plt::harness
