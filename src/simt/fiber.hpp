// Cooperative fibers with a register-only stack switch.
//
// The simulation transport runs every simulated MPI rank as a fiber:
// rank code is written as ordinary blocking SPMD code, and a blocking
// operation suspends the fiber until the discrete-event engine delivers
// its completion at the right point in *virtual* time.  Cooperative
// (single-kernel-thread) scheduling keeps runs fully deterministic.
//
// On x86-64 ELF a switch saves only what the SysV ABI makes
// callee-saved (rbp, rbx, r12-r15, the MXCSR and x87 control words) and
// swaps stack pointers, with no system call.  A resume/suspend pair
// costs ~60 ns on a shared 4-vCPU x86-64 VM (balbench-perf's
// micro.fiber_switch cell).  Other platforms use POSIX ucontext, whose
// swapcontext also makes a sigprocmask system call on every switch
// (~0.6 us per pair on the same VM).  See docs/SIMULATOR.md "Fiber
// lifecycle".
#pragma once

#if defined(__x86_64__) && defined(__ELF__)
#define BALBENCH_FIBER_REGISTER_SWITCH 1
#else
#include <ucontext.h>
#endif

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
  /// Throws std::logic_error, in every build, outside of a fiber.
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
  static void run(Fiber* self);
  void switch_in();   // resumer -> fiber
  void switch_out();  // fiber -> resumer

  Fn fn_;
  StackPool::Stack stack_;
#ifdef BALBENCH_FIBER_REGISTER_SWITCH
  void* sp_ = nullptr;          // fiber's saved stack pointer
  void* resumer_sp_ = nullptr;  // resumer's saved stack pointer
#else
  static void trampoline(unsigned int hi, unsigned int lo);
  ucontext_t context_{};
  ucontext_t return_context_{};
#endif
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
