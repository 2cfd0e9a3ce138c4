#include "simt/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <new>
#include <unordered_map>
#include <vector>

namespace balbench::simt {

namespace {

std::atomic<std::uint64_t> g_mapped{0};
std::atomic<std::uint64_t> g_slab_carved{0};
std::atomic<std::uint64_t> g_reused{0};
std::atomic<std::uint64_t> g_unmapped{0};
std::atomic<std::uint64_t> g_in_use{0};
std::atomic<std::uint64_t> g_in_use_high_water{0};
/// Guard-paged stacks currently mapped (kMaxGuardedStacks budget).
std::atomic<std::uint64_t> g_guarded_live{0};

std::size_t page_size() {
  static const std::size_t kPage =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return kPage;
}

void note_acquired() {
  const std::uint64_t now = g_in_use.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t hw = g_in_use_high_water.load(std::memory_order_relaxed);
  while (now > hw && !g_in_use_high_water.compare_exchange_weak(
                         hw, now, std::memory_order_relaxed)) {
  }
}

void unmap_guarded(const StackPool::Stack& s) {
  ::munmap(s.map, s.map_size);
  g_unmapped.fetch_add(1, std::memory_order_relaxed);
  g_guarded_live.fetch_sub(1, std::memory_order_relaxed);
}

// Per-thread state.  The destructor returns everything to the OS at
// thread exit, so worker threads of a sweep do not leak their warm
// cache; slab-carved free-list entries point into `slabs` and are
// simply dropped.
struct ThreadCache {
  std::unordered_map<std::size_t, std::vector<StackPool::Stack>> by_size;
  struct Slab {
    void* map = nullptr;
    std::size_t map_size = 0;
  };
  std::vector<Slab> slabs;
  char* slab_cur = nullptr;  // bump pointer into the newest slab
  char* slab_end = nullptr;
  ~ThreadCache() {
    for (auto& [size, list] : by_size) {
      (void)size;
      for (const auto& s : list) {
        if (s.guarded()) unmap_guarded(s);
      }
    }
    for (const auto& slab : slabs) ::munmap(slab.map, slab.map_size);
  }
};

ThreadCache& cache() {
  thread_local ThreadCache tc;
  return tc;
}

/// Usable bytes per slab; one slab serves many stacks, keeping the
/// per-process mapping count flat for 100k-rank sessions.
constexpr std::size_t kSlabBytes = 8u << 20;

}  // namespace

std::size_t StackPool::default_stack_size() {
  const std::size_t page = page_size();
  return (kDefaultStackSize + page - 1) / page * page;
}

StackPool::Stack StackPool::acquire(std::size_t stack_size) {
  if (stack_size == 0) stack_size = default_stack_size();
  const std::size_t page = page_size();
  const std::size_t usable =
      ((stack_size < page ? page : stack_size) + page - 1) / page * page;

  ThreadCache& tc = cache();
  if (auto it = tc.by_size.find(usable);
      it != tc.by_size.end() && !it->second.empty()) {
    Stack s = it->second.back();
    it->second.pop_back();
    g_reused.fetch_add(1, std::memory_order_relaxed);
    note_acquired();
    return s;
  }

  // Fresh guard-paged mapping, while the VMA budget lasts.  The
  // increment-then-check keeps the budget safe under concurrent
  // workers (a transient overshoot by #threads is harmless).
  if (g_guarded_live.fetch_add(1, std::memory_order_relaxed) <
      kMaxGuardedStacks) {
    const std::size_t map_size = usable + page;  // + low guard page
    void* map = ::mmap(nullptr, map_size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map != MAP_FAILED) {
      // Stacks grow downward: the guard sits below the usable region
      // so an overflow hits PROT_NONE instead of neighbouring memory.
      if (::mprotect(map, page, PROT_NONE) != 0) {
        ::munmap(map, map_size);
        g_guarded_live.fetch_sub(1, std::memory_order_relaxed);
        throw std::bad_alloc();
      }
      Stack s;
      s.map = map;
      s.map_size = map_size;
      s.base = static_cast<char*>(map) + page;
      s.size = usable;
      g_mapped.fetch_add(1, std::memory_order_relaxed);
      note_acquired();
      return s;
    }
    // mmap failure (e.g. map count exhausted early): fall through to
    // the slab path rather than failing the session.
  }
  g_guarded_live.fetch_sub(1, std::memory_order_relaxed);

  // Slab path: bump-allocate an unguarded stack.
  if (tc.slab_cur == nullptr ||
      static_cast<std::size_t>(tc.slab_end - tc.slab_cur) < usable) {
    const std::size_t slab_size = usable > kSlabBytes ? usable : kSlabBytes;
    void* map = ::mmap(nullptr, slab_size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) throw std::bad_alloc();
    tc.slabs.push_back(ThreadCache::Slab{map, slab_size});
    tc.slab_cur = static_cast<char*>(map);
    tc.slab_end = tc.slab_cur + slab_size;
  }
  Stack s;
  s.base = tc.slab_cur;
  s.size = usable;
  tc.slab_cur += usable;
  g_slab_carved.fetch_add(1, std::memory_order_relaxed);
  note_acquired();
  return s;
}

void StackPool::release(Stack s) {
  if (!s) return;
  g_in_use.fetch_sub(1, std::memory_order_relaxed);
  auto& list = cache().by_size[s.size];
  if (!s.guarded() || list.size() < kMaxCachedPerClass) {
    list.push_back(s);
    return;
  }
  unmap_guarded(s);
}

void StackPool::trim() {
  ThreadCache& tc = cache();
  for (auto& [size, list] : tc.by_size) {
    (void)size;
    // Guarded stacks go back to the OS; slab-carved ones have nowhere
    // to go until the whole slab dies with the thread, so keep them.
    std::size_t kept = 0;
    for (auto& s : list) {
      if (s.guarded()) {
        unmap_guarded(s);
      } else {
        list[kept++] = s;
      }
    }
    list.resize(kept);
  }
}

StackPool::Stats StackPool::stats() {
  Stats st;
  st.mapped = g_mapped.load(std::memory_order_relaxed);
  st.slab_carved = g_slab_carved.load(std::memory_order_relaxed);
  st.reused = g_reused.load(std::memory_order_relaxed);
  st.unmapped = g_unmapped.load(std::memory_order_relaxed);
  st.in_use = g_in_use.load(std::memory_order_relaxed);
  st.in_use_high_water = g_in_use_high_water.load(std::memory_order_relaxed);
  return st;
}

}  // namespace balbench::simt
