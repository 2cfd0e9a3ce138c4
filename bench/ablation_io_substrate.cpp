// Ablation of the I/O substrate's design parameters (paper Sec. 3.2
// items 5-6: filesystem parameters are outside b_eff_io's definition
// but must be reported; this bench shows how strongly each one moves
// the single number).
//
// Variants on the T3E I/O model:
//   * server count halved / doubled (striping width)
//   * one straggler server at 1/4 speed (max-min tail effects: striped
//     requests complete at the slowest stripe)
//   * buffer cache removed
//   * striping unit 4x larger
//   * per-call software overhead halved (a faster MPI-I/O library)
#include <iostream>

#include "core/report/experiments.hpp"
#include "core/scenario/scenario.hpp"
#include "machines/machines.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace balbench;

  std::int64_t procs = 16;
  double t_minutes = 5.0;
  std::int64_t jobs = 1;
  util::Options options(
      "ablation_io_substrate: I/O subsystem parameter study "
      "(paper Sec. 3.2 items 5-6)");
  options.add_int("procs", &procs, "number of processes");
  options.add_double("minutes", &t_minutes, "scheduled time T in minutes");
  options.add_jobs(&jobs, "the variant sweep");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  const int np = static_cast<int>(procs);
  const auto machine = machines::cray_t3e_900();

  // The variants are the machines of a scenario built here, one
  // b_eff_io cell each; run_cells runs their chains on --jobs threads.
  scenario::Scenario sc;
  sc.name = "ablation_io_substrate";
  auto add = [&](const std::string& name, auto&& mutate) {
    machines::MachineSpec m = machine;
    m.short_name = name;  // also the b_eff_io file prefix
    m.io->name = name;
    mutate(*m.io);
    sc.machines.push_back({std::move(m), name});
    scenario::IoCell& cell = sc.io.emplace_back();
    cell.machine = name;
    cell.nprocs = np;
    cell.scheduled_seconds = t_minutes * 60.0;
  };
  add("baseline (10 servers)", [](auto&) {});
  add("5 servers", [](auto& io) { io.num_servers = 5; });
  add("20 servers", [](auto& io) { io.num_servers = 20; });
  add("1 straggler at 1/4 speed", [](auto& io) {
    // Modeled by lowering the aggregate: striped requests wait for the
    // slowest stripe, so one slow RAID throttles every large access.
    io.disk.bandwidth /= 4.0;  // see note below
  });
  add("no buffer cache", [](auto& io) { io.cache_bytes = 0; });
  add("4x striping unit", [](auto& io) { io.stripe_unit *= 4; });
  add("2x faster I/O library", [](auto& io) {
    io.request_overhead /= 2;
    io.server_request_overhead /= 2;
    io.shared_pointer_overhead /= 2;
  });

  report::ExperimentOptions run;
  run.jobs = static_cast<int>(jobs);
  run.verbose = true;
  run.scenario = &sc;
  report::ExperimentsData data = report::sweep_spec(run);
  report::run_cells(data, run);

  util::Table table({"variant", "write\nMB/s", "read\nMB/s", "b_eff_io\nMB/s",
                     "vs baseline"});
  const double base = data.io.front().r.b_eff_io;
  for (const auto& run_io : data.io) {
    const auto& r = run_io.r;
    char rel[32];
    std::snprintf(rel, sizeof rel, "%+.0f%%", (r.b_eff_io / base - 1.0) * 100.0);
    table.add_row({run_io.key,
                   util::format_mbps(r.write().weighted_bandwidth(), 1),
                   util::format_mbps(r.read().weighted_bandwidth(), 1),
                   util::format_mbps(r.b_eff_io, 1), rel});
  }

  std::cout << "I/O substrate ablation (" << machine.name << ", " << np
            << " procs, T = " << t_minutes << " min)\n\n";
  table.render(std::cout);
  std::cout << "\nNote: the straggler variant scales every disk down; a "
               "per-server\nslowdown behaves identically for fully striped "
               "accesses because a\nstriped request completes with its "
               "slowest stripe (max-min tail).\n";
  return 0;
}
