#include "simt/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace bs = balbench::simt;

TEST(Engine, EventsFireInTimeOrder) {
  bs::Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, TieBreaksByInsertionOrder) {
  bs::Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] { order.push_back(0); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(1.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, CancelledEventDoesNotFire) {
  bs::Engine e;
  bool fired = false;
  auto id = e.schedule_at(1.0, [&] { fired = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, ProcessSleepAdvancesVirtualTime) {
  bs::Engine e;
  double woke_at = -1.0;
  e.spawn([&](bs::Process& p) {
    p.sleep(2.5);
    woke_at = 2.5;
  });
  e.run();
  EXPECT_DOUBLE_EQ(woke_at, 2.5);
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
}

TEST(Engine, BlockAndWakeBetweenProcesses) {
  bs::Engine e;
  std::vector<std::string> trace;
  bs::Process* consumer = nullptr;
  e.spawn([&](bs::Process& p) {
    consumer = &p;
    trace.push_back("consumer-blocks");
    p.block();
    trace.push_back("consumer-woke");
  });
  e.spawn([&](bs::Process& p) {
    p.sleep(1.0);
    trace.push_back("producer-wakes-consumer");
    consumer->wake();
  });
  e.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"consumer-blocks",
                                             "producer-wakes-consumer",
                                             "consumer-woke"}));
}

TEST(Engine, DeadlockDetected) {
  bs::Engine e;
  e.spawn([&](bs::Process& p) { p.block(); });
  EXPECT_THROW(e.run(), bs::DeadlockError);
}

TEST(Engine, ExceptionInProcessPropagates) {
  bs::Engine e;
  e.spawn([&](bs::Process&) { throw std::runtime_error("rank failed"); });
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, EventsDuringRunSchedulable) {
  bs::Engine e;
  std::vector<double> times;
  e.schedule_at(1.0, [&] {
    times.push_back(e.now());
    e.schedule_after(0.5, [&] { times.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Engine, ManyProcessesRoundRobin) {
  bs::Engine e;
  constexpr int kProcs = 64;
  int finished = 0;
  for (int i = 0; i < kProcs; ++i) {
    e.spawn([&, i](bs::Process& p) {
      p.sleep(0.001 * (i + 1));
      ++finished;
    });
  }
  e.run();
  EXPECT_EQ(finished, kProcs);
  EXPECT_NEAR(e.now(), 0.001 * kProcs, 1e-12);
  EXPECT_EQ(e.process_count(), static_cast<std::size_t>(kProcs));
}

TEST(Engine, SpuriousWakeOnRunnableProcessIsIgnored) {
  bs::Engine e;
  int runs = 0;
  auto& p = e.spawn([&](bs::Process& proc) {
    ++runs;
    proc.sleep(1.0);
    ++runs;
  });
  // wake() on a process that is not blocked must be a no-op.
  p.wake();
  e.run();
  EXPECT_EQ(runs, 2);
}

TEST(Engine, SchedulingInThePastThrows) {
  bs::Engine e;
  bool fired = false;
  std::string schedule_error, reschedule_error;
  const auto later = e.schedule_at(5.0, [&] { fired = true; });
  e.schedule_at(2.0, [&] {
    try {
      e.schedule_at(1.0, [] {});
    } catch (const std::logic_error& err) {
      schedule_error = err.what();
    }
    try {
      e.reschedule_at(later, 1.5);
    } catch (const std::logic_error& err) {
      reschedule_error = err.what();
    }
  });
  e.run();
  EXPECT_NE(schedule_error.find("schedule_at"), std::string::npos) << schedule_error;
  EXPECT_NE(schedule_error.find("t=1 "), std::string::npos) << schedule_error;
  EXPECT_NE(schedule_error.find("now=2"), std::string::npos) << schedule_error;
  EXPECT_NE(reschedule_error.find("reschedule_at"), std::string::npos)
      << reschedule_error;
  EXPECT_NE(reschedule_error.find("t=1.5 "), std::string::npos) << reschedule_error;
  // The refused reschedule left the event where it was.
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, NanTimeThrows) {
  bs::Engine e;
  EXPECT_THROW(e.schedule_at(std::nan(""), [] {}), std::logic_error);
  const auto id = e.schedule_at(1.0, [] {});
  EXPECT_THROW(e.reschedule_at(id, std::nan("")), std::logic_error);
  EXPECT_THROW(e.schedule_after(std::nan(""), [] {}), std::logic_error);
  // Neither refused call reached the queue: only the 1.0 event fires.
  e.run();
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}
