#include "simt/fiber.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace bs = balbench::simt;

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  bs::Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, SuspendAndResume) {
  std::vector<int> trace;
  bs::Fiber f([&] {
    trace.push_back(1);
    bs::Fiber::suspend();
    trace.push_back(3);
    bs::Fiber::suspend();
    trace.push_back(5);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  trace.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(bs::Fiber::current(), nullptr);
  bs::Fiber* seen = nullptr;
  bs::Fiber f([&] { seen = bs::Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(bs::Fiber::current(), nullptr);
}

TEST(Fiber, ExceptionPropagatesOnRethrow) {
  bs::Fiber f([] { throw std::runtime_error("boom"); });
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_THROW(f.rethrow_if_failed(), std::runtime_error);
  // Second call does not rethrow again.
  EXPECT_NO_THROW(f.rethrow_if_failed());
}

TEST(Fiber, InterleavesTwoFibers) {
  std::vector<int> trace;
  bs::Fiber a([&] {
    trace.push_back(10);
    bs::Fiber::suspend();
    trace.push_back(12);
  });
  bs::Fiber b([&] {
    trace.push_back(20);
    bs::Fiber::suspend();
    trace.push_back(22);
  });
  a.resume();
  b.resume();
  a.resume();
  b.resume();
  EXPECT_EQ(trace, (std::vector<int>{10, 20, 12, 22}));
}

TEST(Fiber, ManyFibersWithDeepStackUse) {
  // Each fiber touches a few kB of stack; 100 fibers must coexist.
  std::vector<std::unique_ptr<bs::Fiber>> fibers;
  int sum = 0;
  for (int i = 0; i < 100; ++i) {
    fibers.push_back(std::make_unique<bs::Fiber>([&sum, i] {
      volatile char pad[4096];
      pad[0] = static_cast<char>(i);
      pad[4095] = pad[0];
      bs::Fiber::suspend();
      sum += i;
    }));
  }
  for (auto& f : fibers) f->resume();
  for (auto& f : fibers) f->resume();
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(Fiber, ResumeOfFinishedFiberThrows) {
  bs::Fiber f([] {});
  f.resume();
  ASSERT_TRUE(f.finished());
  try {
    f.resume();
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("already finished"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(bs::Fiber::current(), nullptr);
}

TEST(Fiber, NestedResumeThrows) {
  bs::Fiber inner([] {});
  std::string error;
  bs::Fiber outer([&] {
    try {
      inner.resume();
    } catch (const std::logic_error& e) {
      error = e.what();
    }
  });
  outer.resume();
  EXPECT_TRUE(outer.finished());
  EXPECT_NE(error.find("nested resume"), std::string::npos) << error;
  // The refused resume left the inner fiber untouched.
  EXPECT_FALSE(inner.finished());
  inner.resume();
  EXPECT_TRUE(inner.finished());
}
