#include "simt/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <stdexcept>

// AddressSanitizer must be told about every manual stack switch, or
// its shadow memory keeps describing the *old* stack and every local
// on the fiber stack reads as poisoned (false stack-use-after-return
// reports, broken fake-stack bookkeeping).  The protocol is the
// documented pair from <sanitizer/common_interface_defs.h>:
// __sanitizer_start_switch_fiber immediately before swapcontext,
// __sanitizer_finish_switch_fiber as the first thing on the
// destination stack.  The `asan` CMake preset builds with
// -fsanitize=address,undefined and runs the robust-labelled tests
// through these annotations.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BALBENCH_ASAN_FIBERS 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define BALBENCH_ASAN_FIBERS 1
#endif

#ifdef BALBENCH_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace balbench::simt {

namespace {
thread_local Fiber* g_current_fiber = nullptr;

#ifdef BALBENCH_ASAN_FIBERS
inline void asan_start_switch(void** fake_save, const void* bottom,
                              std::size_t size) {
  __sanitizer_start_switch_fiber(fake_save, bottom, size);
}
inline void asan_finish_switch(void* fake, const void** prev_bottom,
                               std::size_t* prev_size) {
  __sanitizer_finish_switch_fiber(fake, prev_bottom, prev_size);
}
#else
inline void asan_start_switch(void**, const void*, std::size_t) {}
inline void asan_finish_switch(void*, const void**, std::size_t*) {}
#endif
}  // namespace

Fiber* Fiber::current() { return g_current_fiber; }

Fiber::Fiber(Fn fn, std::size_t stack_size)
    : fn_(std::move(fn)), stack_(StackPool::acquire(stack_size)) {
  if (getcontext(&context_) != 0) {
    StackPool::release(stack_);
    throw std::runtime_error("Fiber: getcontext failed");
  }
  context_.uc_stack.ss_sp = stack_.base;
  context_.uc_stack.ss_size = stack_.size;
  context_.uc_link = nullptr;  // we always switch back explicitly
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned int>(self >> 32),
              static_cast<unsigned int>(self & 0xFFFFFFFFu));
}

Fiber::~Fiber() {
#ifdef BALBENCH_ASAN_FIBERS
  // The pool will hand this stack to a future fiber; stale shadow
  // poison from this fiber's deepest frames must not outlive it.
  __asan_unpoison_memory_region(stack_.base, stack_.size);
#endif
  StackPool::release(stack_);
}

void Fiber::trampoline(unsigned int hi, unsigned int lo) {
  const auto self = (static_cast<std::uintptr_t>(hi) << 32) |
                    static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(self)->run();
}

void Fiber::run() {
  // First instruction on this fiber's stack: complete the switch the
  // resumer started, learning the resumer's stack extents so suspend()
  // and the final exit below can announce switches back to it.
  asan_finish_switch(nullptr, &asan_resumer_bottom_, &asan_resumer_size_);
  try {
    fn_();
  } catch (...) {
    error_ = std::current_exception();
  }
  finished_ = true;
  // Return control to the resumer; this fiber must never be resumed
  // again (resume() throws on finished_).
  Fiber* self = g_current_fiber;
  g_current_fiber = nullptr;
  // nullptr fake-stack slot: the fiber is exiting for good, so ASan
  // frees its fake-stack allocations instead of preserving them.
  asan_start_switch(nullptr, self->asan_resumer_bottom_,
                    self->asan_resumer_size_);
  swapcontext(&self->context_, &self->return_context_);
  // Unreachable.
  assert(false && "finished fiber was resumed");
}

void Fiber::resume() {
  // Checked in every build: resuming a finished fiber would switch to
  // the context its final swapcontext saved, and trampoline would then
  // return with no uc_link, ending the thread.
  if (g_current_fiber != nullptr) {
    throw std::logic_error(
        "Fiber::resume: nested resume from inside a running fiber (only the "
        "scheduler stack may resume fibers)");
  }
  if (finished_) {
    throw std::logic_error(
        "Fiber::resume: fiber already finished (its function returned or "
        "threw); a finished fiber cannot be resumed");
  }
  started_ = true;
  g_current_fiber = this;
  asan_start_switch(&asan_resumer_fake_, stack_.base, stack_.size);
  if (swapcontext(&return_context_, &context_) != 0) {
    g_current_fiber = nullptr;
    throw std::runtime_error("Fiber: swapcontext failed");
  }
  // Back on the resumer's stack (the fiber suspended or finished).
  asan_finish_switch(asan_resumer_fake_, nullptr, nullptr);
  g_current_fiber = nullptr;
}

void Fiber::suspend() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr && "Fiber::suspend outside of a fiber");
  g_current_fiber = nullptr;
  asan_start_switch(&self->asan_fiber_fake_, self->asan_resumer_bottom_,
                    self->asan_resumer_size_);
  if (swapcontext(&self->context_, &self->return_context_) != 0) {
    throw std::runtime_error("Fiber: swapcontext failed");
  }
  // Resumed again: restore the current pointer (resume() sets it before
  // switching, but suspend's counterpart path runs through here).
  asan_finish_switch(self->asan_fiber_fake_, &self->asan_resumer_bottom_,
                     &self->asan_resumer_size_);
  g_current_fiber = self;
}

void Fiber::rethrow_if_failed() {
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace balbench::simt
