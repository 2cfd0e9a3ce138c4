#include "simt/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "net/topology.hpp"
#include "parmsg/sim_transport.hpp"

namespace bs = balbench::simt;
namespace bp = balbench::parmsg;
namespace bn = balbench::net;

TEST(Tracer, RecordsAndTotals) {
  bs::Tracer t;
  t.record(0.0, 1.0, 0, 'c');
  t.record(1.0, 1.5, 0, 'b');
  t.record(0.0, 2.0, 1, 'c');
  const auto totals = t.category_totals();
  EXPECT_DOUBLE_EQ(totals.at('c'), 3.0);
  EXPECT_DOUBLE_EQ(totals.at('b'), 0.5);
  EXPECT_EQ(t.spans().size(), 3u);
}

TEST(Tracer, DropsBeyondCap) {
  bs::Tracer t(2);
  t.record(0, 1, 0, 'c');
  t.record(1, 2, 0, 'c');
  t.record(2, 3, 0, 'c');
  EXPECT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.dropped(), 1u);
  t.clear();
  EXPECT_EQ(t.spans().size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, RejectsInvertedSpans) {
  bs::Tracer t;
  t.record(2.0, 1.0, 0, 'c');
  EXPECT_TRUE(t.spans().empty());
}

TEST(Tracer, TimelineRendersCategories) {
  bs::Tracer t;
  t.describe('c', "compute");
  t.record(0.0, 5.0, 0, 'c');
  t.record(5.0, 10.0, 0, 'b');
  t.record(0.0, 10.0, 1, 'w');
  std::ostringstream os;
  t.render_timeline(os, 20, 8);
  const auto out = os.str();
  EXPECT_NE(out.find('c'), std::string::npos);
  EXPECT_NE(out.find('b'), std::string::npos);
  EXPECT_NE(out.find('w'), std::string::npos);
  EXPECT_NE(out.find("compute"), std::string::npos);
  EXPECT_NE(out.find("p0"), std::string::npos);
  EXPECT_NE(out.find("p1"), std::string::npos);
}

TEST(Tracer, EmptyTimelineIsSafe) {
  bs::Tracer t;
  std::ostringstream os;
  t.render_timeline(os);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(Tracer, SimTransportRecordsActivity) {
  bn::CrossbarParams p;
  p.processes = 4;
  p.port_bw = 1e8;
  p.latency_sec = 10e-6;
  bp::SimTransport transport(bn::make_crossbar(p), bp::CommCosts{});
  auto tracer = std::make_shared<bs::Tracer>();
  transport.set_tracer(tracer);
  transport.run(4, [](bp::Comm& c) {
    c.advance(1e-3);  // compute
    c.barrier();      // collective
    if (c.rank() == 0) {
      c.send(1, nullptr, 1 << 20, 0);
    } else if (c.rank() == 1) {
      c.recv(0, nullptr, 1 << 20, 0);  // blocks -> msg-wait span
    }
    c.barrier();
  });
  const auto totals = tracer->category_totals();
  EXPECT_NEAR(totals.at('c'), 4e-3, 1e-9);  // 4 ranks x 1 ms
  EXPECT_GT(totals.at('b'), 0.0);
  EXPECT_GT(totals.at('w'), 0.0);  // rank 1 waited for the message
}

TEST(Tracer, DetachedTransportRecordsNothing) {
  bn::CrossbarParams p;
  p.processes = 2;
  bp::SimTransport transport(bn::make_crossbar(p), bp::CommCosts{});
  auto tracer = std::make_shared<bs::Tracer>();
  transport.set_tracer(tracer);
  transport.set_tracer(nullptr);
  transport.run(2, [](bp::Comm& c) { c.barrier(); });
  EXPECT_TRUE(tracer->spans().empty());
}
