// The paper's Sec. 6 plan: "It is planned to use both benchmarks in
// the Top Clusters list."  This bench produces such a list for the
// simulated machine park: every system is ranked by b_eff, with
// b_eff_io and the balance factor alongside -- the three numbers the
// paper argues a balanced-architecture ranking needs.
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/report/experiments.hpp"
#include "machines/machines.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace balbench;

  bool quick = false;
  std::int64_t jobs = 1;
  util::Options options(
      "topclusters_list: rank all systems by b_eff / b_eff_io "
      "(paper Sec. 6 proposal)");
  options.add_flag("quick", &quick, "smaller partitions");
  options.add_jobs(&jobs, "the b_eff cells and b_eff_io chains");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  // One flat task list: a b_eff row per machine, plus a b_eff_io row
  // per machine with an I/O model, all through run_cells on --jobs
  // threads.
  report::ExperimentsData data;
  for (const auto& m : machines::all_machines()) {
    if (m.short_name == "sr8000rr") continue;  // same hardware as sr8000
    const int np = std::min(m.max_procs, quick ? 16 : 64);
    report::BeffRun& b = data.beff.emplace_back();
    b.key = m.short_name;
    b.display = m.name;
    b.nprocs = np;
    if (m.io.has_value()) {
      report::IoRun& io = data.io.emplace_back();
      io.key = m.short_name;
      io.nprocs = np;
      io.scheduled_seconds = quick ? 60.0 : 300.0;
    }
  }
  report::ExperimentOptions run;
  run.jobs = static_cast<int>(jobs);
  run.verbose = true;
  report::run_cells(data, run);

  struct Entry {
    std::string name;
    int procs = 0;
    double beff = 0.0;
    double beffio = 0.0;  // 0 when the machine has no I/O model
    double balance = 0.0;
  };
  std::vector<Entry> entries;
  for (const auto& b : data.beff) {
    double io_bw = 0.0;
    for (const auto& io : data.io) {
      if (io.key == b.key) io_bw = io.r.b_eff_io;
    }
    entries.push_back({b.display, b.nprocs, b.r.b_eff, io_bw,
                       report::balance_factor(b)});
  }

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.beff > b.beff; });

  util::Table table({"#", "System", "procs", "b_eff\nMB/s", "b_eff_io\nMB/s",
                     "balance\nbytes/flop"});
  int rank = 1;
  for (const auto& e : entries) {
    table.add_row({util::fmt(rank++), e.name, util::fmt(e.procs),
                   util::format_mbps(e.beff),
                   e.beffio > 0 ? util::format_mbps(e.beffio, 1) : "-",
                   util::fmt(e.balance, 3)});
  }
  std::cout << "Top Clusters list (simulated park; paper Sec. 6 proposal)\n\n";
  table.render(std::cout);
  std::cout << "\nA communication ranking alone would hide both the I/O story\n"
               "(column 5) and the balance story (column 6) -- the paper's\n"
               "argument for characterizing *balanced* architectures.\n";
  return 0;
}
