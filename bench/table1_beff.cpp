// Reproduces Table 1 of the paper: "Effective Benchmark Results".
//
// A view of the report sweep's b_eff cells (report::beff_specs: the
// paper's systems and process counts; --quick takes the quick scope):
// runs them through report::run_cells and prints the table columns:
// b_eff, b_eff per proc, L_max, ping-pong bandwidth, b_eff at L_max,
// per proc at L_max, and per proc at L_max over ring patterns only.
// Also prints the paper's Sec. 2.2 "coffee-cup" statistic (seconds to
// communicate the total memory).
#include <cstdio>
#include <iostream>

#include "core/report/experiments.hpp"
#include "machines/machines.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace balbench;

  bool quick = false;
  bool protocol = false;
  std::int64_t jobs = 1;
  util::Options options(
      "table1_beff: reproduce Table 1 of the paper "
      "(effective bandwidth results, simulated)");
  options.add_flag("quick", &quick, "the quick report scope's b_eff cells");
  options.add_flag("protocol", &protocol, "print the full b_eff protocol per run");
  options.add_jobs(&jobs, "the (machine, partition) sweep");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  report::ExperimentsData data;
  data.beff = report::beff_specs(quick ? report::Scope::Quick : report::Scope::Doc);
  report::ExperimentOptions run;
  run.jobs = static_cast<int>(jobs);
  run.verbose = true;
  report::run_cells(data, run);

  util::Table table({"System", "number\nof pro-\ncessors", "b_eff\nMByte/s",
                     "b_eff\nper proc.\nMByte/s", "Lmax", "ping-\npong\nMByte/s",
                     "b_eff\nat Lmax\nMByte/s", "per proc.\nat Lmax\nMByte/s",
                     "per proc.\nat Lmax\nring pat."});
  bool section_dist = false;
  bool section_shared = false;

  for (const auto& b : data.beff) {
    const auto& r = b.r;
    const auto m = machines::machine_by_name(b.key);
    if (!m.shared_memory && !section_dist) {
      table.add_section("Distributed memory systems");
      section_dist = true;
    }
    if (m.shared_memory && !section_shared) {
      table.add_section("Shared memory systems");
      section_shared = true;
    }
    table.add_row({b.first ? m.name : "", util::fmt(b.nprocs),
                   util::format_mbps(r.b_eff),
                   util::format_mbps(r.per_proc()),
                   util::format_bytes(r.lmax),
                   b.first && r.analysis.pingpong_bw > 0
                       ? util::format_mbps(r.analysis.pingpong_bw)
                       : "",
                   util::format_mbps(r.b_eff_at_lmax),
                   util::format_mbps(r.per_proc_at_lmax()),
                   util::format_mbps(r.per_proc_at_lmax_rings())});
    if (b.first && (b.nprocs >= 24)) {
      // Coffee-cup statistic (paper Sec. 2.2): total memory over b_eff.
      std::fprintf(stderr,
                   "[table1]   total memory communicated in %s (coffee-cup)\n",
                   util::format_seconds(
                       r.seconds_for_total_memory(b.memory_per_proc))
                       .c_str());
    }
    if (protocol) std::cout << beff::protocol_report(r) << '\n';
  }

  std::cout << "Table 1. Effective Benchmark Results (simulated)\n";
  table.render(std::cout);
  return 0;
}
