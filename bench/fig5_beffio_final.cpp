// Reproduces Figure 5 of the paper: the final b_eff_io values for the
// four platforms at several partition sizes (T >= 15 minutes, the
// official schedule).
//
// A view of the report sweep: the "fig5" cells of report::io_specs
// (--quick takes the quick scope), run through report::run_cells.
#include <iostream>
#include <string>

#include "core/report/experiments.hpp"
#include "machines/machines.hpp"
#include "util/ascii_plot.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace balbench;

  bool quick = false;
  std::int64_t jobs = 1;
  util::Options options("fig5_beffio_final: final b_eff_io comparison (Fig. 5)");
  options.add_flag("quick", &quick, "the quick report scope's Figure 5 cells");
  options.add_jobs(&jobs, "the (machine, partition) sweep");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  report::ExperimentsData data;
  data.io = report::io_specs(quick ? report::Scope::Quick : report::Scope::Doc);
  std::erase_if(data.io, [](const report::IoRun& r) { return r.figure != "fig5"; });
  report::ExperimentOptions run;
  run.jobs = static_cast<int>(jobs);
  run.verbose = true;
  report::run_cells(data, run);

  util::Table table({"System", "procs", "write\nMB/s", "rewrite\nMB/s",
                     "read\nMB/s", "b_eff_io\nMB/s"});
  util::AsciiBarChart chart("Figure 5: b_eff_io (best partition per system), MB/s");

  // Rows of one machine are adjacent in the spec; the machine's value
  // is the best over its partitions.
  double best = 0.0;
  int best_np = 0;
  for (std::size_t i = 0; i < data.io.size(); ++i) {
    const auto& cell = data.io[i];
    const auto& r = cell.r;
    const bool first = i == 0 || data.io[i - 1].key != cell.key;
    const std::string name = machines::machine_by_name(cell.key).name;
    if (first) {
      best = 0.0;
      best_np = 0;
    }
    table.add_row({first ? name : "", util::fmt(cell.nprocs),
                   util::format_mbps(r.write().weighted_bandwidth(), 1),
                   util::format_mbps(r.rewrite().weighted_bandwidth(), 1),
                   util::format_mbps(r.read().weighted_bandwidth(), 1),
                   util::format_mbps(r.b_eff_io, 1)});
    if (r.b_eff_io > best) {
      best = r.b_eff_io;
      best_np = cell.nprocs;
    }
    if (i + 1 == data.io.size() || data.io[i + 1].key != cell.key) {
      table.add_separator();
      chart.add_bar(name, best / (1024.0 * 1024.0),
                    std::to_string(best_np) + " procs");
    }
  }

  std::cout << "Figure 5 data: b_eff_io for different numbers of processes\n"
            << "(b_eff_io of a system = maximum over partitions, T = "
            << data.io.front().scheduled_seconds / 60.0 << " min)\n";
  table.render(std::cout);
  std::cout << '\n';
  chart.render(std::cout);
  return 0;
}
