// Reproduces Figure 3 of the paper: b_eff_io as a function of the
// number of processes on the Cray T3E (HLRS) and the IBM RS 6000/SP
// "blue Pacific" (LLNL), for several scheduled times T.
//
// A view of the report sweep: the "fig3" cells of report::io_specs
// (--quick takes the quick scope), each re-run at every T of this
// figure's own axis, through report::run_cells.
//
// The paper's shape: on the T3E the I/O bandwidth is a *global
// resource* -- the maximum is reached around 32 processes with little
// variation from 8 to 128 -- while on the SP it *tracks the number of
// compute nodes* until the 20 VSD servers saturate.
#include <algorithm>
#include <iostream>
#include <vector>

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
  util::Options options(
      "fig3_beffio_scaling: b_eff_io over process counts and T (Fig. 3)");
  options.add_flag("quick", &quick, "the quick report scope's cells, one T value");
  options.add_jobs(&jobs, "the (machine, T, partition) sweep");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  const std::vector<double> times =
      quick ? std::vector<double>{600.0} : std::vector<double>{600.0, 900.0, 1800.0};

  std::vector<report::IoRun> rows =
      report::io_specs(quick ? report::Scope::Quick : report::Scope::Doc);
  std::erase_if(rows, [](const report::IoRun& r) { return r.figure != "fig3"; });
  std::vector<std::string> keys;
  for (const auto& r : rows) {
    if (std::find(keys.begin(), keys.end(), r.key) == keys.end()) {
      keys.push_back(r.key);
    }
  }

  // The (machine, T, partition) sweep in rendering order.
  report::ExperimentsData data;
  for (const auto& key : keys) {
    for (double T : times) {
      for (const auto& r : rows) {
        if (r.key != key) continue;
        data.io.push_back(r);
        data.io.back().scheduled_seconds = T;
      }
    }
  }
  report::ExperimentOptions run;
  run.jobs = static_cast<int>(jobs);
  run.verbose = true;
  report::run_cells(data, run);

  auto next = data.io.begin();
  for (const auto& key : keys) {
    const auto m = machines::machine_by_name(key);
    std::cout << "=== " << m.name << " -- " << m.io->name << " ===\n";
    util::Table table({"T", "procs", "write\nMB/s", "rewrite\nMB/s",
                       "read\nMB/s", "b_eff_io\nMB/s"});
    std::vector<std::string> labels;
    for (const auto& r : rows) {
      if (r.key == key) labels.push_back(util::fmt(r.nprocs));
    }
    util::AsciiPlot plot(labels, {.width = 60,
                                  .height = 14,
                                  .log_y = false,
                                  .y_label = "MB/s",
                                  .title = "b_eff_io vs processes, " + m.name});
    char marker = 'a';
    for (double T : times) {
      util::Series series;
      series.name = "T=" + util::format_seconds(T);
      series.marker = marker++;
      for (std::size_t p = 0; p < labels.size(); ++p, ++next) {
        const auto& r = next->r;
        table.add_row({util::format_seconds(T), util::fmt(next->nprocs),
                       util::format_mbps(r.write().weighted_bandwidth(), 1),
                       util::format_mbps(r.rewrite().weighted_bandwidth(), 1),
                       util::format_mbps(r.read().weighted_bandwidth(), 1),
                       util::format_mbps(r.b_eff_io, 1)});
        series.values.push_back(r.b_eff_io / (1024.0 * 1024.0));
      }
      plot.add_series(std::move(series));
      table.add_separator();
    }
    table.render(std::cout);
    std::cout << '\n';
    plot.render(std::cout);
    std::cout << '\n';
  }
  std::cout << "Reading: T3E flat beyond ~8-32 procs (global I/O resource);\n"
               "SP tracks the client count until the VSD servers saturate.\n";
  return 0;
}
