// Quickstart: measure the effective bandwidth (b_eff) of a simulated
// machine in ~30 lines -- README's "Quickstart (API)" snippet as a
// program.
//
//   $ ./examples/quickstart [--machine NAME] [--procs N]
//
// Steps: pick a machine model from the registry, create a simulation
// transport on its topology, run the b_eff benchmark, and print the
// single-number result plus the detailed protocol.
#include <iostream>

#include "core/beff/beff.hpp"
#include "machines/machines.hpp"
#include "parmsg/sim_transport.hpp"
#include "util/options.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace balbench;

  std::int64_t procs = 16;
  std::string machine = "t3e";
  util::Options options("quickstart: run b_eff on a simulated machine");
  options.add_int("procs", &procs, "number of MPI processes");
  options.add_string("machine", &machine,
                     "machine model (" + machines::machine_list() + ")");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  // 1. A machine model: topology factory + per-call software costs.
  const auto spec = machines::machine_by_name(machine);
  const int np = static_cast<int>(std::min<std::int64_t>(procs, spec.max_procs));

  // 2. A deterministic simulation transport on that topology.
  parmsg::SimTransport transport(spec.make_topology(np), spec.costs);

  // 3. The benchmark: 21 message sizes x 12 patterns x 3 methods, one
  //    measurement cell after another on the transport.
  beff::BeffOptions opt;
  opt.memory_per_proc = spec.memory_per_proc;     // fixes L_max = mem/128
  const auto result = beff::run_beff(transport, np, opt);

  // 4. One number ... plus the full protocol for the details.
  std::cout << "machine : " << spec.name << " (" << np << " processes)\n";
  std::cout << "network : " << spec.make_topology(np)->describe() << "\n";
  std::cout << "b_eff   = " << util::format_mbps(result.b_eff) << " MByte/s  ("
            << util::format_mbps(result.per_proc(), 1) << " per process)\n";
  std::cout << "machine moves its whole memory in "
            << util::format_seconds(
                   result.seconds_for_total_memory(spec.memory_per_proc))
            << " (the paper's coffee-cup metric)\n\n";
  std::cout << beff::protocol_report(result);
  return 0;
}
