#include "net/max_min.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "net/topology.hpp"
#include "simt/engine.hpp"
#include "util/rng.hpp"

namespace bn = balbench::net;
namespace bs = balbench::simt;
namespace bu = balbench::util;

namespace {

std::vector<bn::Link> capacities(std::initializer_list<double> bws) {
  std::vector<bn::Link> links;
  for (double bw : bws) links.push_back(bn::Link{"l" + std::to_string(links.size()), bw});
  return links;
}

}  // namespace

TEST(MaxMinCertificate, AcceptsTheFairAllocation) {
  // Link 0 (4) carries a and b, link 1 (10) carries b and c: a and b
  // share link 0 at 2, c takes what link 1 has left.
  const auto links = capacities({4.0, 10.0});
  const std::vector<bn::LinkId> a{0}, b{0, 1}, c{1};
  const std::vector<bn::FlowRate> flows = {{a, 2.0}, {b, 2.0}, {c, 8.0}};
  EXPECT_EQ(bn::check_max_min(links, flows), "");
}

TEST(MaxMinCertificate, RejectsAnOverloadedLink) {
  const auto links = capacities({4.0, 10.0});
  const std::vector<bn::LinkId> a{0}, b{0, 1}, c{1};
  const std::vector<bn::FlowRate> flows = {{a, 2.5}, {b, 2.0}, {c, 8.0}};
  EXPECT_NE(bn::check_max_min(links, flows).find("over capacity"), std::string::npos);
}

TEST(MaxMinCertificate, RejectsAFlowWithoutABottleneck) {
  // Feasible, but c could grow: link 1 is not saturated.
  const auto links = capacities({4.0, 10.0});
  const std::vector<bn::LinkId> a{0}, b{0, 1}, c{1};
  const std::vector<bn::FlowRate> unsaturated = {{a, 2.0}, {b, 2.0}, {c, 7.0}};
  EXPECT_NE(bn::check_max_min(links, unsaturated).find("no bottleneck"),
            std::string::npos);
  // Feasible and saturated, but b is not the fastest flow on link 0
  // and link 1 carries the faster c: b could take from c.
  const std::vector<bn::FlowRate> unfair = {{a, 3.0}, {b, 1.0}, {c, 9.0}};
  EXPECT_NE(bn::check_max_min(links, unfair).find("flow 1"), std::string::npos);
}

TEST(MaxMinCertificate, RejectsAZeroRate) {
  const auto links = capacities({4.0});
  const std::vector<bn::LinkId> a{0};
  const std::vector<bn::FlowRate> flows = {{a, 0.0}};
  EXPECT_NE(bn::check_max_min(links, flows).find("rate 0"), std::string::npos);
}

namespace {

/// Random arrival/departure churn on one FlowNetwork, checking the
/// certificate on the committed rates after every fill.  Each change
/// (an arrival, once its latency has elapsed, or a departure) arms a
/// check two same-instant hops later, which lands after the resolve
/// the change scheduled; every check sees at most one new fill, and
/// the fill count must equal the number of checks that saw one.
class Churn {
 public:
  Churn(const bn::Topology& topo, std::uint64_t seed)
      : topo_(topo), net_(topo, eng_), rng_(seed) {}

  void run(int total_flows) {
    budget_ = total_flows;
    for (int i = 0; i < total_flows / 4; ++i) start_flow();
    for (int i = 0; i < total_flows / 4; ++i) {
      eng_.schedule_at(rng_.uniform() * 1e-3, [this] { start_flow(); });
    }
    eng_.run();
    EXPECT_EQ(net_.active_flows(), 0u);
    EXPECT_GT(net_.resolves(), 0u);
    EXPECT_EQ(checked_fills_, net_.resolves()) << "a fill went unchecked";
  }

 private:
  void start_flow() {
    if (budget_ == 0) return;
    --budget_;
    const auto n = static_cast<std::uint64_t>(topo_.num_endpoints());
    const int src = static_cast<int>(rng_.below(n));
    int dst = src;
    while (dst == src) dst = static_cast<int>(rng_.below(n));
    const double bytes = 1e3 + rng_.uniform() * 1e6;
    net_.start_flow(src, dst, bytes, [this](bs::Time) {
      arm_check(0.0);
      // Departures often trigger arrivals at the same instant.
      if (rng_.below(2) == 0) start_flow();
    });
    arm_check(topo_.latency(src, dst));
  }

  void arm_check(double dt) {
    eng_.schedule_after(dt, [this] {
      eng_.schedule_after(0.0, [this] { check(); });
    });
  }

  void check() {
    if (net_.resolves() == seen_resolves_) return;
    ASSERT_EQ(net_.resolves(), seen_resolves_ + 1) << "two fills between checks";
    seen_resolves_ = net_.resolves();
    ++checked_fills_;
    const std::vector<bn::FlowRate> alloc = net_.allocation();
    ASSERT_EQ(alloc.size(), net_.active_flows());
    EXPECT_EQ(bn::check_max_min(topo_.links(), alloc), "")
        << "after fill " << seen_resolves_ << " at t = " << eng_.now();
  }

  const bn::Topology& topo_;
  bs::Engine eng_;
  bn::FlowNetwork net_;
  bu::Xoshiro256 rng_;
  int budget_ = 0;
  std::uint64_t seen_resolves_ = 0;
  std::uint64_t checked_fills_ = 0;
};

std::unique_ptr<bn::Topology> churn_topology(const std::string& kind,
                                             std::uint64_t seed) {
  if (kind == "torus") {
    bn::Torus3DParams p;
    p.dims[0] = 4;
    p.dims[1] = 4;
    p.dims[2] = 2;
    return bn::make_torus3d(p);
  }
  if (kind == "smp") {
    bn::SmpClusterParams p;
    p.nodes = 4;
    p.procs_per_node = 4;
    p.placement = bn::Placement::RoundRobin;
    return bn::make_smp_cluster(p);
  }
  if (kind == "bus") {
    bn::SharedMemoryParams p;
    p.processes = 12;
    p.aggregate_bw = 3.3e10;
    return bn::make_shared_memory(p);
  }
  if (kind == "crossbar") {
    bn::CrossbarParams p;
    p.processes = 16;
    return bn::make_crossbar(p);
  }
  // A random sparse switch graph: a ring plus chords of mixed widths.
  bu::Xoshiro256 rng(seed * 7919u);
  bn::AdjacencyParams p;
  p.nodes = 8;
  for (int i = 0; i < p.nodes; ++i) {
    p.edges.push_back({i, (i + 1) % p.nodes, 2e9});
    p.attach.push_back(i);
    p.attach.push_back(i);
  }
  for (int c = 0; c < 4; ++c) {
    const int a = static_cast<int>(rng.below(8));
    const int b = static_cast<int>(rng.below(8));
    if (a != b) p.edges.push_back({a, b, 0.7e9 + 1e9 * rng.uniform()});
  }
  return bn::make_adjacency(p);
}

// The kind is a std::string, not a const char*: googletest prints a
// char pointer with its address, which would put a load-address-
// dependent value into every discovered test name.
class MaxMinChurn
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

}  // namespace

TEST_P(MaxMinChurn, EveryFillIsMaxMinFair) {
  const auto [kind, seed] = GetParam();
  const auto topo = churn_topology(kind, static_cast<std::uint64_t>(seed));
  Churn churn(*topo, static_cast<std::uint64_t>(seed) * 104729u);
  churn.run(400);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, MaxMinChurn,
    ::testing::Combine(::testing::Values(std::string("torus"), std::string("smp"),
                                         std::string("bus"), std::string("crossbar"),
                                         std::string("adjacency")),
                       ::testing::Range(1, 4)),
    [](const ::testing::TestParamInfo<MaxMinChurn::ParamType>& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });
