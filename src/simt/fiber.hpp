// Cooperative fibers on top of POSIX ucontext.
//
// The simulation transport runs every simulated MPI rank as a fiber:
// rank code is written as ordinary blocking SPMD code, and a blocking
// operation suspends the fiber until the discrete-event engine delivers
// its completion at the right point in *virtual* time.  Cooperative
// (single-kernel-thread) scheduling keeps runs fully deterministic.  A
// resume/suspend pair costs ~0.55 us (balbench-perf's micro.fiber_switch
// cell): swapcontext makes a sigprocmask system call on every switch,
// which matters when simulating hundreds of ranks on one host core.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <exception>
#include <functional>

#include "simt/stack_pool.hpp"

namespace balbench::simt {

class Fiber {
 public:
  using Fn = std::function<void()>;

  /// The fiber does not start running until the first resume().  The
  /// stack comes from StackPool (guard-paged, recycled); `stack_size`
  /// 0 means StackPool::default_stack_size().
  explicit Fiber(Fn fn, std::size_t stack_size = 0);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the scheduler into the fiber.  Returns when the fiber
  /// suspends or finishes.  Throws std::logic_error, in every build,
  /// when called from inside a fiber or on a finished fiber.
  void resume();

  /// Suspend the *currently running* fiber back to its resumer.
  /// Must be called from inside the fiber.
  static void suspend();

  /// True once fn has returned (or thrown).
  [[nodiscard]] bool finished() const { return finished_; }

  /// If the fiber terminated with an exception, rethrows it.
  void rethrow_if_failed();

  /// The fiber currently executing, or nullptr when on the scheduler
  /// stack.
  static Fiber* current();

  static constexpr std::size_t kDefaultStackSize = StackPool::kDefaultStackSize;

 private:
  static void trampoline(unsigned int hi, unsigned int lo);
  void run();

  Fn fn_;
  StackPool::Stack stack_;
  ucontext_t context_{};
  ucontext_t return_context_{};
  bool started_ = false;
  bool finished_ = false;
  std::exception_ptr error_;
  // AddressSanitizer fiber-switch bookkeeping (see fiber.cpp); unused
  // -- and zero-cost -- in non-ASan builds.
  void* asan_fiber_fake_ = nullptr;    // fiber's fake stack while suspended
  void* asan_resumer_fake_ = nullptr;  // resumer's fake stack while inside
  const void* asan_resumer_bottom_ = nullptr;
  std::size_t asan_resumer_size_ = 0;
};

}  // namespace balbench::simt
