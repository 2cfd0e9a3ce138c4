#include "simt/fiber.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace bs = balbench::simt;

namespace {

// 1/3 rounded by the current SSE rounding mode: volatile operands keep
// the division at run time.
double one_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

[[gnu::noinline]] std::uintptr_t frame_address() {
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
}

// More live values than there are callee-saved registers, mixed across
// `suspends` suspensions (or none, for the reference on the scheduler
// stack).
[[gnu::noinline]] std::uint64_t mix_across_suspends(std::uint64_t seed,
                                                    int suspends,
                                                    bool suspend) {
  std::uint64_t v[12];
  for (int i = 0; i < 12; ++i) v[i] = seed * (2 * i + 3) + i;
  double d = static_cast<double>(seed) * 0.5;
  for (int round = 0; round < suspends; ++round) {
    if (suspend) bs::Fiber::suspend();
    for (int i = 0; i < 12; ++i) {
      v[i] = (v[i] << 7 | v[i] >> 57) + v[(i + 5) % 12] * 0x9E3779B97F4A7C15ull;
    }
    d = d * 1.5 + static_cast<double>(v[round % 12] & 0xFFFF);
  }
  std::uint64_t h = static_cast<std::uint64_t>(d);
  for (int i = 0; i < 12; ++i) h = h * 31 + v[i];
  return h;
}

// Suspends on the way down, then throws from the bottom frame.
[[gnu::noinline]] int suspend_then_throw(int depth) {
  volatile char pad[256];
  pad[0] = static_cast<char>(depth);
  if (depth % 8 == 0) bs::Fiber::suspend();
  if (depth == 0) throw std::runtime_error("thrown at depth 0");
  return suspend_then_throw(depth - 1) + pad[0];
}

}  // namespace

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

TEST(Fiber, SuspendOutsideAFiberThrows) {
  try {
    bs::Fiber::suspend();
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("outside of a fiber"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(bs::Fiber::current(), nullptr);
}

TEST(Fiber, FloatingPointControlStateIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = one_third();
  int mode_after_resume = -1;
  double third_after_resume = 0;
  bs::Fiber f([&] {
    std::fesetround(FE_UPWARD);
    bs::Fiber::suspend();
    mode_after_resume = std::fegetround();
    third_after_resume = one_third();
  });
  f.resume();
  // The fiber's rounding mode (x87 and SSE) stays on its side.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one_third(), nearest);
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_EQ(mode_after_resume, FE_UPWARD);
  EXPECT_GT(third_after_resume, nearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(Fiber, FramesAreSixteenByteAligned) {
  std::uintptr_t on_entry = 1;
  std::uintptr_t after_resume = 1;
  bs::Fiber f([&] {
    on_entry = frame_address();
    bs::Fiber::suspend();
    after_resume = frame_address();
  });
  f.resume();
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_EQ(on_entry % 16, 0u);
  EXPECT_EQ(after_resume % 16, 0u);
}

TEST(Fiber, LocalsSurviveSuspendsOfInterleavedFibers) {
  constexpr int kSuspends = 5;
  const std::uint64_t seeds[] = {1, 0xDEADBEEF, 12345678901ull};
  std::uint64_t got[3] = {};
  std::vector<std::unique_ptr<bs::Fiber>> fibers;
  for (int i = 0; i < 3; ++i) {
    fibers.push_back(std::make_unique<bs::Fiber>(
        [&, i] { got[i] = mix_across_suspends(seeds[i], kSuspends, true); }));
  }
  // Round-robin, so every switch loads another fiber's registers.
  for (int round = 0; round <= kSuspends; ++round) {
    for (auto& f : fibers) f->resume();
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fibers[i]->finished());
    EXPECT_EQ(got[i], mix_across_suspends(seeds[i], kSuspends, false)) << i;
  }
}

TEST(Fiber, ExceptionFromDeepFrameAfterSuspendsIsRethrown) {
  int resumes = 0;
  bs::Fiber f([] { suspend_then_throw(40); });
  while (!f.finished()) {
    f.resume();
    ++resumes;
  }
  // Suspends at depths 40, 32, 24, 16, 8 and 0, then one resume throws.
  EXPECT_EQ(resumes, 7);
  try {
    f.rethrow_if_failed();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thrown at depth 0");
  }
  EXPECT_EQ(bs::Fiber::current(), nullptr);
}

TEST(Fiber, DestroyingASuspendedFiberReturnsItsStack) {
  const auto baseline = bs::StackPool::stats().in_use;
  bool resumed = false;
  {
    bs::Fiber f([&] {
      bs::Fiber::suspend();
      resumed = true;
    });
    f.resume();
    EXPECT_FALSE(f.finished());
    EXPECT_EQ(bs::StackPool::stats().in_use, baseline + 1);
  }
  EXPECT_EQ(bs::StackPool::stats().in_use, baseline);
  EXPECT_FALSE(resumed);
  // The returned stack serves a new fiber.
  bs::Fiber g([] {});
  g.resume();
  EXPECT_TRUE(g.finished());
}
