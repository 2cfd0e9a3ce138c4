#include "net/flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "simt/engine.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace bn = balbench::net;
namespace bs = balbench::simt;
namespace bu = balbench::util;

namespace {

bn::CrossbarParams simple_xbar(int procs, double bw, double lat) {
  bn::CrossbarParams p;
  p.processes = procs;
  p.port_bw = bw;
  p.latency_sec = lat;
  return p;
}

struct TimedFlow {
  int src = 0;
  int dst = 0;
  double bytes = 0.0;
  double start = 0.0;
};

/// FNV-1a digest over the IEEE-754 bits of `times`, in order.
std::uint64_t time_digest(const std::vector<double>& times) {
  std::string bits;
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_GT(times[i], 0.0) << "flow " << i << " never completed";
    std::uint64_t u = 0;
    std::memcpy(&u, &times[i], sizeof u);
    for (int b = 0; b < 8; ++b) bits.push_back(static_cast<char>(u >> (8 * b)));
  }
  return bu::fnv1a(bits);
}

/// Hand-wired links: every (src, dst) pair gets an explicit route, so a
/// test can place each flow on exactly the links it needs.  Zero
/// latency; unlisted pairs have no route.
class RouteTable : public bn::Topology {
 public:
  RouteTable(std::vector<double> capacities, int endpoints)
      : endpoints_(endpoints) {
    for (double c : capacities) {
      links_.push_back(bn::Link{"l" + std::to_string(links_.size()), c});
    }
  }
  void add(int src, int dst, std::vector<bn::LinkId> path) {
    routes_.push_back({src, dst, std::move(path)});
  }
  int num_endpoints() const override { return endpoints_; }
  const std::vector<bn::Link>& links() const override { return links_; }
  void route(int src, int dst, std::vector<bn::LinkId>& out) const override {
    out.clear();
    for (const Route& r : routes_) {
      if (r.src == src && r.dst == dst) out = r.path;
    }
  }
  double latency(int, int) const override { return 0.0; }
  double self_bandwidth() const override { return 1e9; }
  std::string describe() const override { return "route table"; }

 private:
  struct Route {
    int src;
    int dst;
    std::vector<bn::LinkId> path;
  };
  int endpoints_;
  std::vector<bn::Link> links_;
  std::vector<Route> routes_;
};

/// What a run of a flow workload pins: an FNV-1a digest over the
/// IEEE-754 bits of every flow's completion time, in workload order,
/// and the solver's history-determined counters.
struct FlowRun {
  std::uint64_t digest = 0;
  std::uint64_t fill_rounds = 0;
  std::uint64_t rate_changes = 0;
  std::uint64_t fill_resets = 0;
};

/// Drive `flows` through a fresh FlowNetwork on `topo`.
FlowRun run_flows(const bn::Topology& topo, const std::vector<TimedFlow>& flows) {
  bs::Engine eng;
  bn::FlowNetwork net(topo, eng);
  std::vector<double> done(flows.size(), -1.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const TimedFlow& f = flows[i];
    eng.schedule_at(f.start, [&net, &done, &f, i] {
      net.start_flow(f.src, f.dst, f.bytes,
                     [&done, i](bs::Time t) { done[i] = t; });
    });
  }
  eng.run();
  EXPECT_EQ(net.active_flows(), 0u);
  return FlowRun{time_digest(done), net.fill_rounds(), net.rate_changes(),
                 net.fill_resets()};
}

/// The completion-time digest of run_flows.
std::uint64_t completion_digest(const bn::Topology& topo,
                                const std::vector<TimedFlow>& flows) {
  return run_flows(topo, flows).digest;
}

/// Exact binary start times: k / 1024 seconds.
double exact_start(bu::Xoshiro256& rng) {
  return static_cast<double>(rng.below(64)) / 1024.0;
}

}  // namespace

TEST(Flow, SingleFlowTakesLatencyPlusBytesOverBandwidth) {
  auto topo = bn::make_crossbar(simple_xbar(2, 100.0, 0.5));
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  double done_at = -1.0;
  net.start_flow(0, 1, 1000.0, [&](bs::Time t) { done_at = t; });
  eng.run();
  EXPECT_NEAR(done_at, 0.5 + 1000.0 / 100.0, 1e-9);
}

TEST(Flow, ZeroByteFlowTakesLatencyOnly) {
  auto topo = bn::make_crossbar(simple_xbar(2, 100.0, 0.25));
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  double done_at = -1.0;
  net.start_flow(0, 1, 0.0, [&](bs::Time t) { done_at = t; });
  eng.run();
  EXPECT_NEAR(done_at, 0.25, 1e-12);
}

TEST(Flow, SelfFlowUsesSelfBandwidth) {
  auto topo = bn::make_crossbar(simple_xbar(2, 100.0, 0.25));
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  double done_at = -1.0;
  net.start_flow(1, 1, 1000.0, [&](bs::Time t) { done_at = t; });
  eng.run();
  EXPECT_NEAR(done_at, 0.25 + 1000.0 / topo->self_bandwidth(), 1e-9);
}

TEST(Flow, TwoFlowsShareABottleneckFairly) {
  // Both flows leave port 0: each gets half the tx bandwidth.
  auto topo = bn::make_crossbar(simple_xbar(3, 100.0, 0.0));
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  std::vector<double> done(2, -1.0);
  net.start_flow(0, 1, 1000.0, [&](bs::Time t) { done[0] = t; });
  net.start_flow(0, 2, 1000.0, [&](bs::Time t) { done[1] = t; });
  eng.run();
  EXPECT_NEAR(done[0], 2000.0 / 100.0, 1e-9);
  EXPECT_NEAR(done[1], 2000.0 / 100.0, 1e-9);
}

TEST(Flow, DisjointFlowsDoNotInterfere) {
  auto topo = bn::make_crossbar(simple_xbar(4, 100.0, 0.0));
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  std::vector<double> done(2, -1.0);
  net.start_flow(0, 1, 1000.0, [&](bs::Time t) { done[0] = t; });
  net.start_flow(2, 3, 1000.0, [&](bs::Time t) { done[1] = t; });
  eng.run();
  EXPECT_NEAR(done[0], 10.0, 1e-9);
  EXPECT_NEAR(done[1], 10.0, 1e-9);
}

TEST(Flow, RateRedistributedAfterCompletion) {
  // Flow A: 0->1 (1000 bytes). Flow B: 0->2 (3000 bytes). Shared tx
  // port of 100 B/s.  Phase 1: both at 50 B/s until A ends at t=20
  // (A moved 1000). B then speeds to 100 B/s with 2000 left -> ends at
  // t = 20 + 20 = 40.
  auto topo = bn::make_crossbar(simple_xbar(3, 100.0, 0.0));
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  double a = -1.0;
  double b = -1.0;
  net.start_flow(0, 1, 1000.0, [&](bs::Time t) { a = t; });
  net.start_flow(0, 2, 3000.0, [&](bs::Time t) { b = t; });
  eng.run();
  EXPECT_NEAR(a, 20.0, 1e-9);
  EXPECT_NEAR(b, 40.0, 1e-9);
}

TEST(Flow, LateArrivalSlowsExistingFlow) {
  // Flow A starts alone; at t=5 (latency of B = 5) flow B joins the
  // same tx port.  A: 1000 bytes at 100 B/s for 5 s (500 left), then
  // 50 B/s -> +10 s => done at 15.
  auto topo = bn::make_crossbar(simple_xbar(3, 100.0, 0.0));
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  double a = -1.0;
  net.start_flow(0, 1, 1000.0, [&](bs::Time t) { a = t; });
  eng.schedule_at(5.0, [&] {
    net.start_flow(0, 2, 10000.0, [](bs::Time) {});
  });
  eng.run();
  EXPECT_NEAR(a, 15.0, 1e-9);
}

TEST(Flow, MaxMinFairnessOnAsymmetricPaths) {
  // On a shared-memory topology with a tight bus: 4 flows through one
  // bus of 100 B/s -> 25 B/s each even though ports allow 50.
  bn::SharedMemoryParams p;
  p.processes = 8;
  p.per_process_copy_bw = 100.0;  // ports = 50
  p.aggregate_bw = 100.0;
  p.latency_sec = 0.0;
  auto topo = bn::make_shared_memory(p);
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  std::vector<double> done(4, -1.0);
  for (int i = 0; i < 4; ++i) {
    net.start_flow(i, i + 4, 250.0, [&done, i](bs::Time t) { done[static_cast<std::size_t>(i)] = t; });
  }
  eng.run();
  for (double t : done) EXPECT_NEAR(t, 250.0 / 25.0, 1e-9);
}

TEST(Flow, ManyFlowsAllComplete) {
  auto topo = bn::make_crossbar(simple_xbar(64, 1e6, 1e-6));
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    net.start_flow(i, (i + 1) % 64, 1e5, [&](bs::Time) { ++completed; });
  }
  eng.run();
  EXPECT_EQ(completed, 64);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_GT(net.resolves(), 0u);
}

TEST(Flow, FillStallThrowsWithContext) {
  // A NaN capacity never becomes the bottleneck, so progressive filling
  // cannot freeze anything; the solver must throw, not hand out rates.
  auto topo = bn::make_crossbar(simple_xbar(2, std::nan(""), 0.0));
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  net.start_flow(0, 1, 1000.0, [](bs::Time) {});
  try {
    eng.run();
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("stalled"), std::string::npos)
        << e.what();
  }
}

TEST(Flow, LinkFallingUnderTheThresholdMidRoundFreezesItsLaterFlows) {
  // Switches 0-1-2 in a line.  Flow 0 crosses wire A (0-1) alone and
  // wire B (1-2); c - 1 more flows cross only B.  A's share m is the
  // round's minimum.  B's share r/c starts just above m + eps, but once
  // flow 0 freezes, (r - m)/(c - 1) rounds to at or under it, so the
  // round's in-order test must freeze flow 1 at m as well instead of
  // leaving it for the next round at B's (larger) share.  Only links
  // with ~10^4 flows get this close; the values were found by search.
  const double m = 0x1.8786454bcc99bp+24;
  const double r = 0x1.000496b40fc55p+39;
  const int c = 21427;
  ASSERT_GT(r / c, m + m * 1e-12);
  ASSERT_LE(std::max(0.0, r - m) / (c - 1), m + m * 1e-12);
  bn::AdjacencyParams p;
  p.nodes = 3;
  p.attach = {0, 1, 2};
  p.edges = {{0, 1, m}, {1, 2, r}};
  p.port_bw = 1e15;
  p.latency_sec = 0.0;
  p.per_hop_latency = 0.0;
  auto topo = bn::make_adjacency(p);

  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  const double probe_bytes = 1000.0;
  double probe_done = -1.0;
  net.start_flow(0, 2, 1e12, [](bs::Time) {});
  net.start_flow(1, 2, probe_bytes, [&probe_done](bs::Time t) {
    probe_done = t;
    throw std::runtime_error("probe landed");  // stop: the rest is slow
  });
  for (int i = 2; i < c; ++i) net.start_flow(1, 2, 1e12, [](bs::Time) {});
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_EQ(probe_done, probe_bytes / m);
}

TEST(Flow, LinkRisingOverTheThresholdMidRoundKeepsItsLaterFlowsUnfixed) {
  // Two wires no flow shares: A (share m, one flow) is the round's minimum;
  // B carries flows 1 and 2 at a share inside the eps band above m, so
  // both start the round as candidates.  Freezing flow 1 at m lifts B's
  // share to r - m, above the band: flow 2 must wait for the next round
  // and run at r - m, not be frozen at m with its link-mate.
  const double m = 1e6;
  const double r = 0x1.e848000001e32p+20;  // 2m(1 + 0.9e-12)
  ASSERT_LE(r / 2, m + m * 1e-12);
  ASSERT_GT(r - m, m + m * 1e-12);
  bn::AdjacencyParams p;
  p.nodes = 4;
  p.attach = {0, 1, 2, 3};
  p.edges = {{0, 1, m}, {2, 3, r}, {1, 2, 1e15}};  // last: connectivity only
  p.port_bw = 1e15;
  p.latency_sec = 0.0;
  p.per_hop_latency = 0.0;
  auto topo = bn::make_adjacency(p);

  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  const double probe_bytes = 1000.0;
  double probe_done = -1.0;
  net.start_flow(0, 1, 1e9, [](bs::Time) {});
  net.start_flow(2, 3, 1e9, [](bs::Time) {});
  net.start_flow(2, 3, probe_bytes, [&probe_done](bs::Time t) { probe_done = t; });
  eng.run();
  EXPECT_EQ(probe_done, probe_bytes / (r - m));
}

TEST(Flow, OutOfRangeEndpointThrows) {
  auto topo = bn::make_crossbar(simple_xbar(2, 1.0, 0.0));
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  EXPECT_THROW(net.start_flow(0, 7, 1.0, [](bs::Time) {}), std::out_of_range);
}

// Bit-exact regression pins.  Bandwidths, byte counts and start times
// are exact binary values, so fair shares tie exactly and the
// progressive fill's output is fully determined by its arithmetic and
// its arrival-order commits.  Any change to either -- a reordered
// subtraction, a different tie rule, a resumable fill -- moves these
// digests.  The suite names are kept from the component-incremental
// solver these workloads used to compare against the global fill.

TEST(FlowIncremental, ComponentMergeThenSplitMatchesFull) {
  bn::CrossbarParams p = simple_xbar(6, 1024.0, 0.0);
  auto topo = bn::make_crossbar(p);
  // Two link-disjoint flows, then a bridge 0->3 that shares the tx port
  // of the first and the rx port of the second, coupling them; the
  // bridge is small enough to finish first, decoupling them again.
  std::vector<TimedFlow> flows = {
      {0, 1, 1 << 20, 0.0},
      {2, 3, 1 << 20, 0.0},
      {0, 3, 1 << 12, 1.0 / 8.0},
      // Late disjoint arrival while the bridge is live.
      {4, 5, 1 << 16, 1.0 / 4.0},
  };
  EXPECT_EQ(completion_digest(*topo, flows), 0x4b9df118e8818bc3ULL);
}

class FlowIncrementalRandom : public ::testing::TestWithParam<int> {};

TEST_P(FlowIncrementalRandom, TorusWorkloadMatchesFull) {
  static constexpr std::uint64_t kDigest[] = {
      0xf7e3ec8e385b48d7ULL, 0xc54138b99a515ca2ULL, 0xea27248c70711204ULL,
      0x02500a5799f17095ULL, 0x7bbabc685b4df02fULL, 0x2612d5f9dd8a426aULL,
      0x3c93f6bbb7cf1c07ULL, 0x1c817b925c280046ULL,
  };
  bu::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  bn::Torus3DParams p;
  p.dims[0] = 4;
  p.dims[1] = 4;
  p.dims[2] = 2;
  p.nic_bw = 1 << 27;
  p.duplex_factor = 1.25;
  p.link_bw = 1 << 28;
  p.base_latency = 1.0 / (1 << 20);
  p.per_hop_latency = 1.0 / (1 << 22);
  auto topo = bn::make_torus3d(p);
  const auto n = static_cast<std::uint64_t>(topo->num_endpoints());

  std::vector<TimedFlow> flows;
  const int nflows = 24 + static_cast<int>(rng.below(24));
  for (int i = 0; i < nflows; ++i) {
    TimedFlow f;
    f.src = static_cast<int>(rng.below(n));
    do {
      f.dst = static_cast<int>(rng.below(n));
    } while (f.dst == f.src);
    f.bytes = static_cast<double>((1 + rng.below(64)) << 12);
    f.start = exact_start(rng);
    flows.push_back(f);
  }
  EXPECT_EQ(completion_digest(*topo, flows), kDigest[GetParam() - 1]);
}

TEST_P(FlowIncrementalRandom, AdjacencyWorkloadMatchesFull) {
  static constexpr std::uint64_t kDigest[] = {
      0xf32a6a5b28e4f2a9ULL, 0x3b6da080f30f4992ULL, 0x1d605f6f67284ad4ULL,
      0xab9503024087d4f9ULL, 0x817e5262b0e80c97ULL, 0x72532453a7d0254bULL,
      0xef11a4eed740733bULL, 0x0c455465a917faa0ULL,
  };
  bu::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919u);
  // Random sparse switch graph: a ring (keeps it connected) plus a few
  // chords, two endpoints attached per switch.
  bn::AdjacencyParams p;
  p.nodes = 8;
  p.port_bw = 4096.0;
  p.latency_sec = 1.0 / (1 << 16);
  p.per_hop_latency = 1.0 / (1 << 18);
  for (int i = 0; i < p.nodes; ++i) {
    p.edges.push_back({i, (i + 1) % p.nodes, 8192.0});
    p.attach.push_back(i);
    p.attach.push_back(i);
  }
  for (int c = 0; c < 3; ++c) {
    const int a = static_cast<int>(rng.below(8));
    const int b = static_cast<int>(rng.below(8));
    if (a != b) p.edges.push_back({a, b, 4096.0});
  }
  auto topo = bn::make_adjacency(p);
  const auto n = static_cast<std::uint64_t>(topo->num_endpoints());

  std::vector<TimedFlow> flows;
  const int nflows = 16 + static_cast<int>(rng.below(16));
  for (int i = 0; i < nflows; ++i) {
    TimedFlow f;
    f.src = static_cast<int>(rng.below(n));
    do {
      f.dst = static_cast<int>(rng.below(n));
    } while (f.dst == f.src);
    f.bytes = static_cast<double>((1 + rng.below(256)) << 8);
    f.start = exact_start(rng);
    flows.push_back(f);
  }
  EXPECT_EQ(completion_digest(*topo, flows), kDigest[GetParam() - 1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowIncrementalRandom, ::testing::Range(1, 9));

// Realistic-bandwidth pin.  The exact-binary pins above make fair
// shares tie exactly, so they never reach the progressive fill's
// relative-epsilon band or a link ratio that moves across the
// bottleneck threshold in the middle of a round.  The T3E's torus
// values (machines.cpp, built here by hand so test_net needs no
// machines library) and microsecond latencies are not dyadic, and
// two-flows-per-rank permutation traffic at three sizes with staggered
// starts exercises both.  Digests were recorded from the scan-based
// fill that preceded the heap-driven one.
class FlowT3ERandom : public ::testing::TestWithParam<int> {};

TEST_P(FlowT3ERandom, PermutationWorkloadIsPinned) {
  static constexpr std::uint64_t kDigest[] = {
      0x13a6f8d4ed8798deULL, 0xff716798a23086cbULL, 0x8711a77fc255ab4fULL,
      0x02d6d6d64957c2fbULL, 0xfe0c5d909f4a950cULL, 0x6dc337da8eff1e3dULL,
      0xfffde0c933701547ULL, 0x588ab1209b097cc2ULL,
  };
  constexpr double kMiB = 1024.0 * 1024.0;
  constexpr int kRanks = 128;
  bn::Torus3DParams p;
  bn::torus_dims_for(kRanks, p.dims);
  p.nic_bw = 330 * kMiB;
  p.duplex_factor = 1.25;
  p.link_bw = 360 * kMiB;
  p.base_latency = 14e-6;
  p.per_hop_latency = 0.1e-6;
  auto topo = bn::make_torus3d(p);
  ASSERT_EQ(topo->num_endpoints(), kRanks);

  bu::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 104729u);
  constexpr double kBytes[] = {1000.0, 60000.0, 1.0e6};
  std::vector<TimedFlow> flows;
  for (int copy = 0; copy < 2; ++copy) {
    std::vector<int> perm(kRanks);
    for (int r = 0; r < kRanks; ++r) perm[static_cast<std::size_t>(r)] = r;
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    for (int r = 0; r < kRanks; ++r) {
      TimedFlow f;
      f.src = r;
      f.dst = perm[static_cast<std::size_t>(r)];
      f.bytes = kBytes[rng.below(3)];
      f.start = static_cast<double>(rng.below(200)) * 1e-6;
      flows.push_back(f);
    }
  }
  EXPECT_EQ(completion_digest(*topo, flows), kDigest[GetParam() - 1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowT3ERandom, ::testing::Range(1, 9));

// Resume pins.  After departures only, a fill replays the previous
// fill's rounds below the first round that queued one of the departed
// flows' links and searches from there (docs/SIMULATOR.md "Re-solve").
// Digests were recorded from the fill that preceded the resumable one,
// which always filled from round 1.

TEST(FlowResume, DepartedFlowsLinkFellUnderTheThresholdAfterItsTurn) {
  // The values of LinkFallingUnderTheThresholdMidRound...: wire A
  // (share m) is round 1's minimum, and wire B's share r / c rounds to
  // at or under the threshold once flow g (crossing A and B) freezes.
  // Flow d crosses only B and arrives before g, so round 1 queues B
  // after d's turn: d freezes in round 2, but B was first queued in
  // round 1.  When d departs, B carries c - 1 flows and never comes
  // near the threshold in round 1 -- resuming at d's freeze round
  // would replay round 1's freezes of B's later flows at m.
  const double m = 0x1.8786454bcc99bp+24;
  const double r = 0x1.000496b40fc55p+39;
  const int c = 21427;
  bn::AdjacencyParams p;
  p.nodes = 3;
  p.attach = {0, 1, 2};
  p.edges = {{0, 1, m}, {1, 2, r}};
  p.port_bw = 1e15;
  p.latency_sec = 0.0;
  p.per_hop_latency = 0.0;
  auto topo = bn::make_adjacency(p);

  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  std::vector<double> done(2, -1.0);
  net.start_flow(1, 2, 1000.0, [&done](bs::Time t) { done[0] = t; });  // d
  net.start_flow(0, 2, 1e12, [](bs::Time) {});                         // g
  net.start_flow(1, 2, 2000.0, [&done](bs::Time t) {
    done[1] = t;
    throw std::runtime_error("probe landed");  // stop: the rest is slow
  });
  for (int i = 3; i < c; ++i) net.start_flow(1, 2, 1e12, [](bs::Time) {});
  EXPECT_THROW(eng.run(), std::runtime_error);
  ASSERT_LT(done[0], done[1]);
  EXPECT_EQ(time_digest(done), 0x86c7572c6fb911e8ULL);
}

TEST(FlowResume, DepartureAndArrivalAtTheSameInstant) {
  // A leaves at t = 2 just as D arrives and takes A's slot: the fill
  // must see D on its links, not A.
  RouteTable topo({1024.0, 2048.0}, 5);
  topo.add(1, 0, {0});     // A
  topo.add(2, 0, {0, 1});  // B
  topo.add(3, 0, {1});     // C
  topo.add(4, 0, {1});     // D
  const std::vector<TimedFlow> flows = {
      {1, 0, 1024.0, 0.0},
      {2, 0, 8192.0, 0.0},
      {3, 0, 8192.0, 0.0},
      {4, 0, 2048.0, 2.0},
  };
  EXPECT_EQ(completion_digest(topo, flows), 0x7abaf41d3acc7053ULL);
}

TEST(FlowResume, DepartureEmptiesALink) {
  // Round 1 freezes F1 and F2 on link 0 at 512; round 2 (1024) freezes
  // X, alone on link 1, and then Y1 on link 3; round 3 gives Y2 2048.
  // X leaves first, emptying link 1 and lifting link 3: the next fill
  // replays round 1 and finds Y1 and Y2 at 1536 in round 2.
  RouteTable topo({1024.0, 1024.0, 3072.0, 2048.0}, 6);
  topo.add(1, 0, {0});     // F1
  topo.add(2, 0, {0});     // F2
  topo.add(3, 0, {1, 3});  // X
  topo.add(4, 0, {3, 2});  // Y1
  topo.add(5, 0, {2});     // Y2
  const std::vector<TimedFlow> flows = {
      {1, 0, 4096.0, 0.0}, {2, 0, 4096.0, 0.0}, {3, 0, 1024.0, 0.0},
      {4, 0, 4096.0, 0.0}, {5, 0, 8192.0, 0.0},
  };
  EXPECT_EQ(completion_digest(topo, flows), 0xdde1f20ca2e34242ULL);
}

// Rollback pins.  A departures-only fill rolls the previous fill's
// rounds from the resume round on back and searches only those
// (docs/SIMULATOR.md "Re-solve").  Digests were recorded from the fill
// that replayed the rounds below the resume round instead.

namespace {

// Four rounds on exact binary shares: link 0 (1024) freezes A and B at
// 512; link 1 (3072) freezes C, D and E at 1024; link 2 (4096), left
// with 3072 by E, freezes F and G at 1536; link 3 (8192), left with
// 6656 by G, gives the rest to the flows that cross only it.
// `more` appends links (4, 5, ...) that no route crosses yet.
RouteTable four_round_links(const std::vector<double>& more = {}) {
  std::vector<double> capacities = {1024.0, 3072.0, 4096.0, 8192.0};
  capacities.insert(capacities.end(), more.begin(), more.end());
  RouteTable topo(capacities, 12);
  topo.add(1, 0, {0});     // A
  topo.add(2, 0, {0});     // B
  topo.add(3, 0, {1});     // C
  topo.add(4, 0, {1});     // D
  topo.add(5, 0, {1, 2});  // E
  topo.add(6, 0, {2});     // F
  topo.add(7, 0, {2, 3});  // G
  topo.add(8, 0, {3});     // H
  topo.add(9, 0, {3});     // H2
  return topo;
}

}  // namespace

TEST(FlowResume, TwoDeparturesOnlyFillsInARow) {
  // H (6656 B/s) leaves at t = 1: the fill resumes at round 4, its last,
  // and has nothing left to search.  G (1536 B/s) leaves at t = 2: link
  // 3 no longer counts as queued, so the fill resumes at round 3 and
  // gives F all of link 2's 3072.  Then the others leave one by one.
  const RouteTable topo = four_round_links();
  const std::vector<TimedFlow> flows = {
      {1, 0, 4096.0, 0.0},  {2, 0, 5120.0, 0.0},  {3, 0, 8192.0, 0.0},
      {4, 0, 9216.0, 0.0},  {5, 0, 10240.0, 0.0}, {6, 0, 16384.0, 0.0},
      {7, 0, 3072.0, 0.0},  {8, 0, 6656.0, 0.0},
  };
  EXPECT_EQ(completion_digest(topo, flows), 0xfb05d739bc1d5e0eULL);
}

TEST(FlowResume, DepartureResumesAtTheLastRound) {
  // H and H2 share link 3's 6656 at 3328 in round 4, the last.  H
  // leaves at t = 1 and the fill rolls round 4 back and searches it
  // again, with H2 alone.
  const RouteTable topo = four_round_links();
  const std::vector<TimedFlow> flows = {
      {1, 0, 65536.0, 0.0}, {2, 0, 65536.0, 0.0}, {3, 0, 65536.0, 0.0},
      {4, 0, 65536.0, 0.0}, {5, 0, 65536.0, 0.0}, {6, 0, 65536.0, 0.0},
      {7, 0, 65536.0, 0.0}, {8, 0, 3328.0, 0.0},  {9, 0, 65536.0, 0.0},
  };
  EXPECT_EQ(completion_digest(topo, flows), 0xd78a92b09d0457cbULL);
}

TEST(FlowResume, EveryFlowOfASearchedLinkDeparts) {
  // Round 1 freezes A, B and X on link 0 (1536) at 512; round 2 freezes
  // P and Q, alone on link 2 (2048), at 1024, and Y, left with 1536 on
  // link 1 by X, in round 3.  P and Q leave together at t = 1: the
  // fill rolls rounds 2 and 3 back, link 2 keeps no flow, and Y is
  // searched again.  At t = 2 R arrives on link 2 and link 0.
  RouteTable topo({1536.0, 2048.0, 2048.0}, 8);
  topo.add(1, 0, {0});     // A
  topo.add(2, 0, {0});     // B
  topo.add(3, 0, {0, 1});  // X
  topo.add(4, 0, {2});     // P
  topo.add(5, 0, {2});     // Q
  topo.add(6, 0, {1});     // Y
  topo.add(7, 0, {2, 0});  // R
  const std::vector<TimedFlow> flows = {
      {1, 0, 8192.0, 0.0}, {2, 0, 9216.0, 0.0}, {3, 0, 10240.0, 0.0},
      {4, 0, 1024.0, 0.0}, {5, 0, 1024.0, 0.0}, {6, 0, 16384.0, 0.0},
      {7, 0, 4096.0, 2.0},
  };
  EXPECT_EQ(completion_digest(topo, flows), 0x18b89c0de67179a2ULL);
}

TEST(FlowResume, RolledBackRoundQueuesALinkInMidRoundAgain) {
  // The values of LinkFallingUnderTheThresholdMidRound...: link C's two
  // flows freeze in round 1; link A (g alone, share m) and link D (W
  // and W2 over 2m) are round 2's minimum, and link B's share r / c
  // rounds to at or under the threshold once g (crossing A and B)
  // freezes, which queues B's later flows in mid-round.  W leaves
  // first and the fill rolls rounds 2 and up back: the search of round
  // 2 queues B's later flows in mid-round again.
  const double m = 0x1.8786454bcc99bp+24;
  const double r = 0x1.000496b40fc55p+39;
  const int c = 21427;
  RouteTable topo({m, r, m / 2, 2 * m}, 5);
  topo.add(1, 0, {2});     // X, Y
  topo.add(2, 0, {3});     // W, W2
  topo.add(3, 0, {0, 1});  // g
  topo.add(4, 0, {1});     // the probe and B's other flows

  bs::Engine eng;
  bn::FlowNetwork net(topo, eng);
  std::vector<double> done(2, -1.0);
  net.start_flow(1, 0, 1e12, [](bs::Time) {});
  net.start_flow(1, 0, 1e12, [](bs::Time) {});
  net.start_flow(2, 0, 100.0, [&done](bs::Time t) { done[0] = t; });  // W
  net.start_flow(2, 0, 1e12, [](bs::Time) {});
  net.start_flow(3, 0, 1e12, [](bs::Time) {});  // g
  net.start_flow(4, 0, 2000.0, [&done](bs::Time t) {
    done[1] = t;
    throw std::runtime_error("probe landed");  // stop: the rest is slow
  });
  for (int i = 2; i < c; ++i) net.start_flow(4, 0, 1e12, [](bs::Time) {});
  EXPECT_THROW(eng.run(), std::runtime_error);
  ASSERT_LT(done[0], done[1]);
  EXPECT_EQ(time_digest(done), 0xfbc3cfaf149193f9ULL);
}

// Arrival pins.  An arrival lowers only its own links' shares, so a
// fill after arrivals resumes at the first logged round in which one of
// those links, counting the new flows, would have come to or under the
// round's threshold -- at the round's start or after any freeze in it
// (docs/SIMULATOR.md "Resuming after arrivals and departures").
// Digests, rounds and rate changes were recorded from the fill that
// reset every link and searched from round 1 after any arrival;
// fill_resets() shows which path each fill took.

TEST(FlowResume, ArrivalAboveEveryThresholdResumesPastTheLastRound) {
  // Round 1 freezes A and B on link 0 at 512; B's other link (1 MiB/s)
  // is far above it.  Z arrives on link 1 at t = 1: even with B still
  // counted there, link 1 stays above 512 + eps, so the fill keeps
  // round 1 and searches only a new round 2 for Z.
  RouteTable topo({1024.0, 1048576.0}, 4);
  topo.add(1, 0, {0});     // A
  topo.add(2, 0, {0, 1});  // B
  topo.add(3, 0, {1});     // Z
  const std::vector<TimedFlow> flows = {
      {1, 0, 4096.0, 0.0}, {2, 0, 8192.0, 0.0}, {3, 0, 1 << 22, 1.0},
  };
  const FlowRun run = run_flows(topo, flows);
  EXPECT_EQ(run.digest, 0x94311efbbaf6284aULL);
  EXPECT_EQ(run.fill_rounds, 5u);
  EXPECT_EQ(run.rate_changes, 4u);
  EXPECT_EQ(run.fill_resets, 2u);  // the first fill, and A's departure
}

TEST(FlowResume, ArrivalAndDepartureWhereTheDepartureResumesLower) {
  // C (1024 B/s, round 2) leaves at t = 1 as Z arrives on link 3.
  // Counting Z, link 3 first comes under a threshold at round 4's start
  // (6656 / 3 under 3328); C's link was first queued in round 2, so the
  // fill rolls rounds 2 and up back and searches them.
  RouteTable topo = four_round_links();
  topo.add(10, 0, {3});  // Z
  const std::vector<TimedFlow> flows = {
      {1, 0, 65536.0, 0.0}, {2, 0, 65536.0, 0.0}, {3, 0, 1024.0, 0.0},
      {4, 0, 65536.0, 0.0}, {5, 0, 65536.0, 0.0}, {6, 0, 65536.0, 0.0},
      {7, 0, 65536.0, 0.0}, {8, 0, 65536.0, 0.0}, {10, 0, 65536.0, 1.0},
  };
  const FlowRun run = run_flows(topo, flows);
  EXPECT_EQ(run.digest, 0x4b6b4e472057f967ULL);
  EXPECT_EQ(run.fill_rounds, 20u);
  EXPECT_EQ(run.rate_changes, 16u);
  EXPECT_EQ(run.fill_resets, 1u);
}

TEST(FlowResume, ArrivalOnANeverUsedLink) {
  // Z crosses link 4 (2560, never used) and link 3.  Link 4 alone
  // stays above 1536, round 3's threshold; link 3, with Z, comes under
  // round 4's 3328 at its start.  The fill rolls round 4 back and
  // freezes H, H2 and Z together at link 3's 6656 / 3.
  RouteTable topo = four_round_links({2560.0});
  topo.add(10, 0, {4, 3});  // Z
  const std::vector<TimedFlow> flows = {
      {1, 0, 65536.0, 0.0}, {2, 0, 65536.0, 0.0}, {3, 0, 65536.0, 0.0},
      {4, 0, 65536.0, 0.0}, {5, 0, 65536.0, 0.0}, {6, 0, 65536.0, 0.0},
      {7, 0, 65536.0, 0.0}, {8, 0, 65536.0, 0.0}, {9, 0, 65536.0, 0.0},
      {10, 0, 65536.0, 1.0},
  };
  const FlowRun run = run_flows(topo, flows);
  EXPECT_EQ(run.digest, 0x030c8139f2d8b302ULL);
  EXPECT_EQ(run.fill_rounds, 18u);
  EXPECT_EQ(run.rate_changes, 13u);
  EXPECT_EQ(run.fill_resets, 1u);
}

TEST(FlowResume, ArrivalOnALinkWhoseFlowsAllDeparted) {
  // P, alone on link 4 (2560), freezes in round 4 and leaves at t = 1
  // as R arrives on link 0, whose share drops under round 1's: that
  // fill starts over and drops link 4, which P's freeze left with no
  // residual.  S arrives on link 4 alone at t = 2 and must see its
  // whole 2560 again; it leaves at t = 3, and Q arrives at t = 4 on
  // link 4 (listed, with no flows) and link 3.
  RouteTable topo = four_round_links({2560.0});
  topo.add(10, 0, {4});     // P, S
  topo.add(11, 0, {0});     // R
  topo.add(9, 1, {4, 3});   // Q
  const std::vector<TimedFlow> flows = {
      {1, 0, 65536.0, 0.0}, {2, 0, 65536.0, 0.0}, {3, 0, 65536.0, 0.0},
      {4, 0, 65536.0, 0.0}, {5, 0, 65536.0, 0.0}, {6, 0, 65536.0, 0.0},
      {7, 0, 65536.0, 0.0}, {8, 0, 65536.0, 0.0}, {10, 0, 2560.0, 0.0},
      {11, 0, 65536.0, 1.0}, {10, 0, 2560.0, 2.0}, {9, 1, 65536.0, 4.0},
  };
  const FlowRun run = run_flows(topo, flows);
  EXPECT_EQ(run.digest, 0xcca269702d68c665ULL);
  EXPECT_EQ(run.fill_rounds, 34u);
  EXPECT_EQ(run.rate_changes, 16u);
  EXPECT_EQ(run.fill_resets, 3u);  // the first fill, R's, and one departure
}

TEST(FlowResume, ArrivalPushesALinkUnderTheThresholdMidRound) {
  // The values of LinkFallingUnderTheThresholdMidRound...: flow g
  // crosses wire A (share m, the round's minimum) and wire B; c - 2
  // more flows cross only B, the probe first.  Without the arrival, B
  // stays above m + eps after g's freeze too, and its flows freeze in
  // round 2 at (r - m) / (c - 2).  Z arrives on B at t = 1: B's share
  // stays above the threshold at round 1's start, but once g freezes,
  // (r - m) / (c - 1) is at or under it, so the fill must start over
  // and freeze the probe at m in round 1.  A probe of the log that
  // looks only at round starts would see B under round 2's threshold
  // first, keep round 1 and give the probe (r - m) / (c - 1), 1e-12
  // above m: its bytes are many enough for its finish to show that.
  const double m = 0x1.8786454bcc99bp+24;
  const double r = 0x1.000496b40fc55p+39;
  const int c = 21427;
  ASSERT_GT(std::max(0.0, r - m) / (c - 2), m + m * 1e-12);
  ASSERT_GT(r / c, m + m * 1e-12);
  ASSERT_LE(std::max(0.0, r - m) / (c - 1), m + m * 1e-12);
  ASSERT_NE(std::max(0.0, r - m) / (c - 1), m);
  bn::AdjacencyParams p;
  p.nodes = 3;
  p.attach = {0, 1, 2};
  p.edges = {{0, 1, m}, {1, 2, r}};
  p.port_bw = 1e15;
  p.latency_sec = 0.0;
  p.per_hop_latency = 0.0;
  auto topo = bn::make_adjacency(p);

  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  const double probe_bytes = 1e11;
  std::vector<double> done(1, -1.0);
  net.start_flow(0, 2, 1e12, [](bs::Time) {});  // g
  net.start_flow(1, 2, probe_bytes, [&done](bs::Time t) {
    done[0] = t;
    throw std::runtime_error("probe landed");  // stop: the rest is slow
  });
  for (int i = 3; i < c; ++i) net.start_flow(1, 2, 1e12, [](bs::Time) {});
  eng.schedule_at(1.0, [&net] { net.start_flow(1, 2, 1e12, [](bs::Time) {}); });  // Z
  EXPECT_THROW(eng.run(), std::runtime_error);
  const double before = std::max(0.0, r - m) / (c - 2);  // the probe's first rate
  EXPECT_EQ(done[0], 1.0 + (probe_bytes - before) / m);
  EXPECT_EQ(time_digest(done), 0xd4e63bd139559d9cULL);
  EXPECT_EQ(net.fill_rounds(), 5u);
  EXPECT_EQ(net.rate_changes(), 42852u);
  EXPECT_EQ(net.fill_resets(), 2u);  // the first fill, and Z's
}
