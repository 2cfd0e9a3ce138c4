// Layer probes: each times one public entry point of one layer in
// isolation, repeated and reduced to the median.  They run in traced
// invocations only, after the workload's repetitions.
#include <stdexcept>
#include <vector>

#include "core/beff/patterns.hpp"
#include "e2e.hpp"
#include "machines/machines.hpp"
#include "net/flow.hpp"
#include "parmsg/sim_transport.hpp"
#include "simt/engine.hpp"
#include "simt/fiber.hpp"
#include "util/stats.hpp"
#include "util/wallclock.hpp"

namespace balbench::e2e {

namespace {

constexpr int kProbeRepeats = 5;

/// Nanoseconds per Fiber::resume + Fiber::suspend pair.
double switch_ns() {
  constexpr int kSwitches = 200000;
  simt::Fiber fiber([] {
    for (int i = 0; i < kSwitches; ++i) simt::Fiber::suspend();
  });
  const double t0 = util::wall_now();
  while (!fiber.finished()) fiber.resume();
  const double dt = util::wall_now() - t0;
  fiber.rethrow_if_failed();
  return dt / kSwitches * 1e9;
}

/// Nanoseconds per event for Engine::schedule_at + the event loop.
double dispatch_ns() {
  constexpr int kEvents = 200000;
  simt::Engine engine;
  std::uint64_t fired = 0;
  const double t0 = util::wall_now();
  for (int i = 0; i < kEvents; ++i) {
    engine.schedule_at(static_cast<double>(i) * 1e-9, [&fired] { ++fired; });
  }
  engine.run();
  const double dt = util::wall_now() - t0;
  if (fired != kEvents) throw std::logic_error("dispatch probe lost events");
  return dt / kEvents * 1e9;
}

struct FillProbe {
  double seconds = 0.0;
  std::uint64_t resolves = 0;
};

/// One L_max exchange of `pattern` on the T3E torus through
/// FlowNetwork::start_flow and Engine::run, with no fibers: every
/// process sends L_max to both ring neighbours at t = 0.
FillProbe fill(const beff::CommPattern& pattern, int nprocs) {
  const machines::MachineSpec m = machines::cray_t3e_900();
  const auto topology = m.make_topology(nprocs);
  const double lmax = static_cast<double>(m.lmax());
  simt::Engine engine;
  net::FlowNetwork flows(*topology, engine);
  const double t0 = util::wall_now();
  for (int p = 0; p < nprocs; ++p) {
    flows.start_flow(p, pattern.right[static_cast<std::size_t>(p)], lmax,
                     [](simt::Time) {});
    flows.start_flow(p, pattern.left[static_cast<std::size_t>(p)], lmax,
                     [](simt::Time) {});
  }
  engine.run();
  return FillProbe{util::wall_now() - t0, flows.resolves()};
}

/// SimTransport construction (topology included) plus one barrier.
double construct_s(int nprocs) {
  const machines::MachineSpec m = machines::cray_t3e_900();
  const double t0 = util::wall_now();
  parmsg::SimTransport transport(m.make_topology(nprocs), m.costs);
  transport.run(nprocs, [](parmsg::Comm& c) { c.barrier(); });
  return util::wall_now() - t0;
}

}  // namespace

std::map<std::string, double> run_probes(std::uint64_t beff_seed, bool small) {
  const int nprocs = small ? 16 : 256;
  // The workload's largest ring and random patterns (ring size P).
  const beff::CommPattern ring =
      beff::make_ring_pattern(beff::kNumRingPatterns - 1, nprocs);
  const beff::CommPattern random = beff::make_random_pattern(
      beff::kNumRandomPatterns - 1, nprocs, accepted_seed(beff_seed));

  std::vector<double> sw, disp, fill_random, fill_ring, construct;
  std::uint64_t random_resolves = 0;
  for (int i = 0; i < kProbeRepeats; ++i) {
    sw.push_back(switch_ns());
    disp.push_back(dispatch_ns());
    const FillProbe fr = fill(random, nprocs);
    fill_random.push_back(fr.seconds);
    random_resolves = fr.resolves;
    fill_ring.push_back(fill(ring, nprocs).seconds);
    construct.push_back(construct_s(nprocs));
  }
  return {{"simt.switch_ns", util::median(sw)},
          {"simt.dispatch_ns", util::median(disp)},
          {"net.fill_random_s", util::median(fill_random)},
          {"net.fill_ring_s", util::median(fill_ring)},
          {"net.fill_random_resolves", static_cast<double>(random_resolves)},
          {"parmsg.construct_s", util::median(construct)}};
}

}  // namespace balbench::e2e
