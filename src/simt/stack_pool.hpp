// Pooled, guard-paged fiber stacks.
//
// Every simulated rank runs on a fiber, so a 100k-rank session needs
// 100k stacks.  Allocating each with operator new is slow (page faults
// on first touch, allocator metadata churn) and unsafe (an overflow
// silently tramples the neighbouring heap block).  The pool instead
// mmaps each stack with a PROT_NONE guard page at the low end -- the
// direction x86/ARM stacks grow -- so overflow faults immediately, and
// recycles released stacks through a per-thread free list so repeated
// sessions (a perf sweep, a scenario matrix) stop paying the mmap +
// fault-in cost after the first run.  See docs/SIMULATOR.md
// "Fiber stacks and pooling".
//
// Thread model: free lists are thread_local, so a stack is only ever
// reused by the thread that released it -- no locks on the hot path,
// and no cross-thread handoff for TSan to object to.  Statistics are
// process-global atomics (they aggregate all worker threads).
//
// VMA budget: every guard page splits the address space into two
// kernel VMAs, and vm.max_map_count is commonly ~65k -- far below the
// two-per-stack a 100k-rank session would need.  The pool therefore
// guards the first kMaxGuardedStacks stacks individually and carves
// any further stacks out of large unguarded slabs (bump-allocated,
// recycled through the same free lists, returned to the OS wholesale
// at thread exit).  An overflow on a slab stack tramples its
// neighbour's deepest frames instead of faulting -- the accepted cost
// of scaling past the kernel's mapping limit; sessions small enough
// to matter for debugging stay fully guarded.
//
// Determinism: nothing here may leak into run records.  Whether an
// acquire is a fresh map or a reuse depends on which cells the worker
// thread ran before, i.e. on host scheduling -- so Stats are exposed
// for logs and tests only.  Deterministic capacity metrics (rank
// high-water x stack size) come from the engine instead
// (Engine::live_process_high_water).
#pragma once

#include <cstddef>
#include <cstdint>

namespace balbench::simt {

class StackPool {
 public:
  /// One stack.  `base`/`size` describe the usable region (where
  /// Fiber builds its first frame, and what the ASan fiber annotations
  /// are told).
  /// Guarded stacks own their mapping (`map`/`map_size`, starting one
  /// page below `base`); slab-carved stacks have map == nullptr and
  /// live inside a thread-owned slab.
  struct Stack {
    char* base = nullptr;
    std::size_t size = 0;
    void* map = nullptr;
    std::size_t map_size = 0;
    [[nodiscard]] explicit operator bool() const { return base != nullptr; }
    [[nodiscard]] bool guarded() const { return map != nullptr; }
  };

  /// Process-global, host-side counters (see file comment: never part
  /// of run records).
  struct Stats {
    std::uint64_t mapped = 0;       ///< guard-paged stacks freshly mmap'd
    std::uint64_t slab_carved = 0;  ///< stacks carved from unguarded slabs
    std::uint64_t reused = 0;       ///< acquires served from a free list
    std::uint64_t unmapped = 0;     ///< guarded stacks returned to the OS
    std::uint64_t in_use = 0;       ///< currently acquired
    std::uint64_t in_use_high_water = 0;  ///< max simultaneous in_use
  };

  /// Acquire a stack with at least `stack_size` usable bytes (rounded
  /// up to a whole number of pages).  Throws std::bad_alloc on mmap
  /// failure.  Pass 0 for default_stack_size().
  static Stack acquire(std::size_t stack_size);

  /// Return a stack to the calling thread's free list (or to the OS
  /// once the list holds kMaxCachedPerClass entries of this size).
  /// No-op for a default-constructed Stack.
  static void release(Stack s);

  /// Unmap every stack cached by the *calling* thread.
  static void trim();

  [[nodiscard]] static Stats stats();

  /// Usable bytes given to fibers that do not ask for a specific size:
  /// kDefaultStackSize rounded up to a whole number of pages.  A
  /// process that needs more passes its own size to Engine::spawn.
  [[nodiscard]] static std::size_t default_stack_size();

  static constexpr std::size_t kDefaultStackSize = 256 * 1024;

  /// Per-thread cap on cached *guarded* stacks of one size class;
  /// beyond it, released guarded stacks go straight back to the OS.
  /// 1024 x 256 KiB = 256 MiB worst-case idle cache per worker
  /// thread.  Slab-carved stacks always return to the free list (their
  /// memory cannot be released piecemeal anyway).
  static constexpr std::size_t kMaxCachedPerClass = 1024;

  /// Process-wide cap on simultaneously-mapped guard-paged stacks
  /// (two VMAs each); acquires beyond it carve from slabs instead.
  static constexpr std::size_t kMaxGuardedStacks = 16384;
};

}  // namespace balbench::simt
