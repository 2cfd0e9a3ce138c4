// Reproduces Figure 1 of the paper: the balance factor -- the ratio of
// interprocessor communication bandwidth (b_eff) to the floating-point
// performance (Linpack R_max) -- for a variety of platforms.
//
// A view of the report sweep: the b_eff cells of report::beff_specs
// that report::fig1_points() names (--quick takes the quick scope),
// run through report::run_cells.
//
// The paper's observation: shared-memory vector systems are much
// better balanced (more communication bytes per flop) than the MPP
// and SMP-cluster systems.
#include <algorithm>
#include <iostream>

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
  util::Options options("fig1_balance: balance factor b_eff / R_max (Fig. 1)");
  options.add_flag("quick", &quick, "the quick report scope's Figure 1 cells");
  options.add_jobs(&jobs, "the per-machine sweep");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  report::ExperimentsData data;
  data.beff = report::beff_specs(quick ? report::Scope::Quick : report::Scope::Doc);
  std::erase_if(data.beff, [](const report::BeffRun& b) {
    return std::none_of(report::fig1_points().begin(),
                        report::fig1_points().end(),
                        [&](const report::Fig1Point& p) {
                          return b.key == p.key && b.nprocs == p.nprocs;
                        });
  });
  report::ExperimentOptions run;
  run.jobs = static_cast<int>(jobs);
  run.verbose = true;
  report::run_cells(data, run);

  util::Table table({"System", "procs", "b_eff\nMByte/s", "R_max\nGFlop/s",
                     "balance factor\nbytes/flop"});
  util::AsciiBarChart chart("Figure 1: balance factor (b_eff / R_max)");

  for (const auto& b : data.beff) {
    const std::string name = machines::machine_by_name(b.key).name;
    const double rmax_flops = b.rmax_gflops_per_proc * 1e9 * b.nprocs;
    const double balance = b.r.b_eff / rmax_flops;  // bytes per flop
    table.add_row({name, util::fmt(b.nprocs), util::format_mbps(b.r.b_eff),
                   util::fmt(rmax_flops / 1e9, 1), util::fmt(balance, 3)});
    chart.add_bar(name, balance);
  }

  std::cout << "Figure 1 data: balance factor for a variety of platforms\n";
  table.render(std::cout);
  std::cout << '\n';
  chart.render(std::cout);
  std::cout << "\nReading: shared-memory vector systems (SX-5, SX-4) are\n"
               "several times better balanced than the MPP and SMP-cluster\n"
               "systems, as in the paper's Figure 1.\n";
  return 0;
}
