// Process-placement study on a cluster of SMPs -- and a demonstration
// that parmsg is a real message-passing library, not only a simulator.
//
// Part 1 reproduces the paper's Hitachi SR 8000 observation: ring
// communication is several times faster when ranks are numbered
// sequentially (neighbours share a node) than round-robin (every
// neighbour is off-node).
//
// Part 2 runs the *same* SPMD ring code on the thread transport: real
// std::thread ranks, real buffers, real data -- verifying that a ring
// shift moves actual payload.
#include <cstring>
#include <iostream>
#include <numeric>
#include <vector>

#include "core/report/experiments.hpp"
#include "parmsg/thread_transport.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace balbench;

/// The SPMD ring-shift kernel used by both parts: every rank sends a
/// block to its right neighbour and receives from the left.
void ring_shift(parmsg::Comm& c, std::vector<int>& block) {
  const int right = (c.rank() + 1) % c.size();
  const int left = (c.rank() + c.size() - 1) % c.size();
  std::vector<int> incoming(block.size());
  c.sendrecv(right, block.data(), block.size() * sizeof(int), 0, left,
             incoming.data(), incoming.size() * sizeof(int), 0);
  block = std::move(incoming);
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t procs = 24;
  std::int64_t jobs = 1;
  util::Options options("placement_study: SMP placement effects + real transport");
  options.add_int("procs", &procs, "number of processes (multiple of 8 ideal)");
  options.add_jobs(&jobs, "the b_eff cells of Part 1");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  const int np = static_cast<int>(procs);

  // --- Part 1: simulated placement comparison -------------------------
  std::cout << "Part 1: ring bandwidth vs process placement (SR 8000 model, "
            << np << " procs)\n\n";
  // The registry's two SR 8000 placements as b_eff rows without the
  // analysis cells, one task list on --jobs threads.
  report::ExperimentsData data;
  for (const char* key : {"sr8000", "sr8000rr"}) {
    report::BeffRun& row = data.beff.emplace_back();
    row.key = key;
    row.nprocs = np;
  }
  report::ExperimentOptions run;
  run.jobs = static_cast<int>(jobs);
  run.verbose = true;
  report::run_cells(data, run);
  util::Table table({"placement", "b_eff\nMB/s", "per proc\nMB/s",
                     "per proc at Lmax\nring patterns"});
  for (const auto& row : data.beff) {
    const auto& r = row.r;
    table.add_row({row.key == "sr8000" ? "sequential" : "round-robin",
                   util::format_mbps(r.b_eff),
                   util::format_mbps(r.per_proc(), 1),
                   util::format_mbps(r.per_proc_at_lmax_rings(), 1)});
  }
  table.render(std::cout);
  std::cout << "\"The numbering has a heavy impact on the communication\n"
               "bandwidth of the ring patterns\" (paper Sec. 4.1).\n\n";

  // --- Part 2: the same kernel on real threads ------------------------
  std::cout << "Part 2: the same ring kernel on the thread transport\n";
  const int tp = std::min(np, 8);
  parmsg::ThreadTransport threads(tp);
  bool ok = true;
  threads.run(tp, [&](parmsg::Comm& c) {
    std::vector<int> block(1024);
    std::iota(block.begin(), block.end(), c.rank() * 1024);
    for (int step = 0; step < tp; ++step) ring_shift(c, block);
    // After size() shifts every block is back home.
    for (int i = 0; i < 1024; ++i) {
      if (block[static_cast<std::size_t>(i)] != c.rank() * 1024 + i) ok = false;
    }
    const double sum = c.allreduce_sum(block.front());
    if (c.rank() == 0) {
      std::cout << "  " << tp << " thread-ranks shifted a 4 kB block "
                << tp << " times around the ring; checksum " << sum << "\n";
    }
  });
  std::cout << (ok ? "  payload verified: every block returned home intact\n"
                   : "  ERROR: payload corrupted\n");
  return ok ? 0 : 1;
}
