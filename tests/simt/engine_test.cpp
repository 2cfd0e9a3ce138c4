#include "simt/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

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

TEST(EventQueue, PopOnEmptyThrows) {
  bs::EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  q.push(1.0, 1, [] {});
  q.pop();
  EXPECT_THROW(q.pop(), std::logic_error);
}

// Seeded push/cancel/reschedule/pop against a sorted std::map keyed
// by (time, seq): few distinct times, so most comparisons fall to the
// seq tie-break, and cancels and reschedules of ids that fired or were
// cancelled.
TEST(EventQueue, MatchesSortedReference) {
  using Key = std::pair<double, std::uint64_t>;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    balbench::util::Xoshiro256 rng(seed);
    bs::EventQueue q;
    std::map<Key, std::size_t> ref;           // pending key -> event number
    std::map<std::uint64_t, Key> pending;     // id -> its current key
    std::vector<std::uint64_t> ids;           // by event number
    std::uint64_t next_seq = 1;
    std::size_t fired = 0;  // event number the last popped callback set
    const auto pop_and_check = [&](int step) {
      const auto want = ref.begin();
      bs::EventQueue::Event ev = q.pop();
      ev.fn();
      ASSERT_EQ(ev.time, want->first.first) << "step " << step;
      ASSERT_EQ(fired, want->second) << "step " << step;
      pending.erase(ids[want->second]);
      ref.erase(want);
    };
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t op = rng.below(8);
      const double t = static_cast<double>(rng.below(6));
      if (op < 3 || ref.empty()) {
        const std::size_t k = ids.size();
        const Key key{t, next_seq++};
        const std::uint64_t id = q.push(key.first, key.second, [&fired, k] { fired = k; });
        ASSERT_NE(id, 0u);
        ASSERT_TRUE(pending.emplace(id, key).second);
        ref.emplace(key, k);
        ids.push_back(id);
      } else if (op < 5) {
        const std::uint64_t id = ids[rng.below(ids.size())];
        const auto it = pending.find(id);
        ASSERT_EQ(q.cancel(id), it != pending.end()) << "step " << step;
        if (it != pending.end()) {
          ref.erase(it->second);
          pending.erase(it);
        }
      } else if (op < 7) {
        const std::uint64_t id = ids[rng.below(ids.size())];
        const auto it = pending.find(id);
        const Key key{t, next_seq++};
        ASSERT_EQ(q.reschedule(id, key.first, key.second), it != pending.end())
            << "step " << step;
        if (it != pending.end()) {
          auto node = ref.extract(it->second);
          node.key() = key;
          ref.insert(std::move(node));
          it->second = key;
        }
      } else {
        pop_and_check(step);
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!ref.empty()) pop_and_check(-1);
    EXPECT_TRUE(q.empty());
  }
}
