#include "simt/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>

// AddressSanitizer must be told about every manual stack switch, or
// its shadow memory keeps describing the *old* stack and every local
// on the fiber stack reads as poisoned (false stack-use-after-return
// reports, broken fake-stack bookkeeping).  The protocol is the
// documented pair from <sanitizer/common_interface_defs.h>:
// __sanitizer_start_switch_fiber immediately before the switch,
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

#ifdef BALBENCH_FIBER_REGISTER_SWITCH
// balbench_simt_switch(save_sp, load_sp): push the SysV callee-saved
// registers and the MXCSR / x87 control words (their control bits --
// rounding mode, exception masks -- are callee-saved too), store rsp in
// *save_sp, load load_sp, restore the same state from the other stack
// and return into it.  Caller-saved registers need no saving: the
// switch is an ordinary call to the compiler.  Stack layout at the
// saved sp: [0] MXCSR (4 bytes) + x87 CW (2), then r15, r14, r13, r12,
// rbx, rbp, return address -- Fiber::Fiber builds the same frame for
// the first switch into a fiber.
//
// balbench_simt_fiber_entry: the first switch into a fiber "returns"
// here, with the fiber in r12 and Fiber::run in r13, on the 16-byte
// aligned stack top.  Fiber::run catches every exception and never
// returns (its last act switches out for good), so C++ unwinding never
// reaches this frame or crosses a switch; .cfi_undefined rip ends
// unwinders' and debuggers' walks here, and ud2 traps a return.
//
// Neither routine switches a CET shadow stack, so neither is marked as
// supporting one (no endbr64, no shadow-stack property note).
asm(R"(
    .pushsection .text
    .p2align 4
    .globl balbench_simt_switch
    .hidden balbench_simt_switch
    .type balbench_simt_switch, @function
balbench_simt_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbp, 0
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbx, 0
    pushq %r12
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r12, 0
    pushq %r13
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r13, 0
    pushq %r14
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r14, 0
    pushq %r15
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r15, 0
    subq $8, %rsp
    .cfi_adjust_cfa_offset 8
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    .cfi_adjust_cfa_offset -8
    popq %r15
    .cfi_adjust_cfa_offset -8
    popq %r14
    .cfi_adjust_cfa_offset -8
    popq %r13
    .cfi_adjust_cfa_offset -8
    popq %r12
    .cfi_adjust_cfa_offset -8
    popq %rbx
    .cfi_adjust_cfa_offset -8
    popq %rbp
    .cfi_adjust_cfa_offset -8
    ret
    .cfi_endproc
    .size balbench_simt_switch, .-balbench_simt_switch

    .p2align 4
    .globl balbench_simt_fiber_entry
    .hidden balbench_simt_fiber_entry
    .type balbench_simt_fiber_entry, @function
balbench_simt_fiber_entry:
    .cfi_startproc
    .cfi_undefined %rip
    movq %r12, %rdi
    callq *%r13
    ud2
    .cfi_endproc
    .size balbench_simt_fiber_entry, .-balbench_simt_fiber_entry
    .popsection
)");

extern "C" void balbench_simt_switch(void** save_sp, void* load_sp);
extern "C" void balbench_simt_fiber_entry();
#endif

namespace balbench::simt {

namespace {
// A fiber is always resumed on the thread that created it (one engine
// per pool task, and an engine never migrates), so the "current fiber"
// is per thread.
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

#ifdef BALBENCH_FIBER_REGISTER_SWITCH
Fiber::Fiber(Fn fn, std::size_t stack_size)
    : fn_(std::move(fn)), stack_(StackPool::acquire(stack_size)) {
  // The frame balbench_simt_switch pops on the first switch in (layout
  // above the asm).  The fiber starts with the FP control words in
  // force here, as the ucontext path's getcontext captures them.
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_cw));
  const std::uint64_t frame[8] = {
      mxcsr | (std::uint64_t{x87_cw} << 32),
      0,                                               // r15
      0,                                               // r14
      reinterpret_cast<std::uint64_t>(&Fiber::run),    // r13
      reinterpret_cast<std::uint64_t>(this),           // r12
      0,                                               // rbx
      0,                                               // rbp: ends fp chains
      reinterpret_cast<std::uint64_t>(&balbench_simt_fiber_entry),
  };
  const auto top = reinterpret_cast<std::uintptr_t>(stack_.base + stack_.size) &
                   ~std::uintptr_t{15};
  char* sp = reinterpret_cast<char*>(top) - sizeof frame;
  std::memcpy(sp, frame, sizeof frame);
  sp_ = sp;
}

void Fiber::switch_in() { balbench_simt_switch(&resumer_sp_, sp_); }
void Fiber::switch_out() { balbench_simt_switch(&sp_, resumer_sp_); }
#else
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

void Fiber::trampoline(unsigned int hi, unsigned int lo) {
  const auto self = (static_cast<std::uintptr_t>(hi) << 32) |
                    static_cast<std::uintptr_t>(lo);
  run(reinterpret_cast<Fiber*>(self));
}

void Fiber::switch_in() {
  if (swapcontext(&return_context_, &context_) != 0) {
    g_current_fiber = nullptr;
    throw std::runtime_error("Fiber: swapcontext failed");
  }
}
void Fiber::switch_out() {
  if (swapcontext(&context_, &return_context_) != 0) {
    throw std::runtime_error("Fiber: swapcontext failed");
  }
}
#endif

Fiber::~Fiber() {
#ifdef BALBENCH_ASAN_FIBERS
  // The pool will hand this stack to a future fiber; stale shadow
  // poison from this fiber's deepest frames must not outlive it.
  __asan_unpoison_memory_region(stack_.base, stack_.size);
#endif
  StackPool::release(stack_);
}

void Fiber::run(Fiber* self) {
  // First instruction on this fiber's stack: complete the switch the
  // resumer started, learning the resumer's stack extents so suspend()
  // and the final exit below can announce switches back to it.
  asan_finish_switch(nullptr, &self->asan_resumer_bottom_,
                     &self->asan_resumer_size_);
  try {
    self->fn_();
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->finished_ = true;
  // Return control to the resumer; this fiber must never be resumed
  // again (resume() throws on finished_).
  g_current_fiber = nullptr;
  // nullptr fake-stack slot: the fiber is exiting for good, so ASan
  // frees its fake-stack allocations instead of preserving them.
  asan_start_switch(nullptr, self->asan_resumer_bottom_,
                    self->asan_resumer_size_);
  self->switch_out();
  // Unreachable.
  assert(false && "finished fiber was resumed");
}

void Fiber::resume() {
  // Checked in every build: resuming a finished fiber would switch to
  // the stack its final switch saved, and run would then return into
  // its entry frame, which has nowhere to go.
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
  switch_in();
  // Back on the resumer's stack (the fiber suspended or finished).
  asan_finish_switch(asan_resumer_fake_, nullptr, nullptr);
  g_current_fiber = nullptr;
}

void Fiber::suspend() {
  Fiber* self = g_current_fiber;
  // Checked in every build: outside a fiber there is nothing to switch
  // out of, and `self` would be dereferenced as null.
  if (self == nullptr) {
    throw std::logic_error(
        "Fiber::suspend: called outside of a fiber (only a running fiber may "
        "suspend itself)");
  }
  g_current_fiber = nullptr;
  asan_start_switch(&self->asan_fiber_fake_, self->asan_resumer_bottom_,
                    self->asan_resumer_size_);
  self->switch_out();
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
