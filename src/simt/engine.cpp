#include "simt/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace balbench::simt {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

namespace {
// Heap arity: a 4-ary heap halves the levels a sift walks, and a node's
// four children share one or two cache lines of 24-byte keys.
constexpr std::size_t kArity = 4;
}  // namespace

std::uint32_t EventQueue::find(std::uint64_t id) const {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return kInvalidPos;
  const Slot& s = slots_[slot];
  if (s.generation != generation || s.pos == kInvalidPos) return kInvalidPos;
  return s.pos;
}

void EventQueue::release_slot(std::uint32_t slot) {
  slots_[slot].pos = kInvalidPos;
  ++slots_[slot].generation;  // invalidates every outstanding id
  fns_[slot] = nullptr;
  free_slots_.push_back(slot);
}

void EventQueue::sift_up(std::size_t i, Key key) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    slots_[heap_[i].slot].pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = key;
  slots_[key.slot].pos = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_down(std::size_t i, Key key) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t child = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[child])) child = c;
    }
    if (!before(heap_[child], key)) break;
    heap_[i] = heap_[child];
    slots_[heap_[i].slot].pos = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap_[i] = key;
  slots_[key.slot].pos = static_cast<std::uint32_t>(i);
}

std::uint64_t EventQueue::push(Time time, std::uint64_t seq,
                               std::function<void()> fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{});
    fns_.emplace_back();
  }
  fns_[slot] = std::move(fn);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{time, seq, slot});
  return (static_cast<std::uint64_t>(slots_[slot].generation) << 32) |
         static_cast<std::uint64_t>(slot);
}

EventQueue::Event EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: the queue is empty");
  const Key front = heap_.front();
  Event ev{front.time, std::move(fns_[front.slot])};
  release_slot(front.slot);
  remove_at(0);
  return ev;
}

void EventQueue::remove_at(std::size_t i) {
  const Key removed = heap_[i];
  const Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  // The key filling the hole travels up only if it orders before the
  // one it replaces, and down otherwise.
  if (before(last, removed)) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

bool EventQueue::cancel(std::uint64_t id) {
  const std::uint32_t pos = find(id);
  if (pos == kInvalidPos) return false;
  release_slot(heap_[pos].slot);
  remove_at(pos);
  return true;
}

bool EventQueue::reschedule(std::uint64_t id, Time time, std::uint64_t new_seq) {
  const std::uint32_t pos = find(id);
  if (pos == kInvalidPos) return false;
  const Key old = heap_[pos];
  const Key key{time, new_seq, old.slot};
  if (before(key, old)) {
    sift_up(pos, key);
  } else {
    sift_down(pos, key);
  }
  return true;
}

void Process::sleep(Time dt) {
  assert(dt >= 0.0);
  engine_->schedule_after(dt, [this] { wake(); });
  block();
}

Time Process::block() {
  assert(Fiber::current() == fiber_.get() && "block() outside own fiber");
  // Abort check on entry *and* after resume: a process woken by
  // Engine::start_abort must unwind instead of continuing its protocol
  // against peers that no longer exist.
  if (engine_->aborted()) {
    throw AbortError("process id=" + std::to_string(id_) +
                     " unwound by session abort");
  }
  blocked_ = true;
  Fiber::suspend();
  if (engine_->aborted()) {
    throw AbortError("process id=" + std::to_string(id_) +
                     " unwound by session abort");
  }
  return engine_->now();
}

void Process::wake() {
  if (!blocked_) return;  // spurious wake (e.g. cancelled timeout races)
  blocked_ = false;
  engine_->make_runnable(*this);
}

Process& Engine::spawn(std::function<void(Process&)> fn, std::size_t stack_size) {
  auto proc = std::unique_ptr<Process>(
      new Process(this, static_cast<int>(processes_.size())));
  Process* p = proc.get();
  proc->fiber_ = std::make_unique<Fiber>([p, fn = std::move(fn)] { fn(*p); },
                                         stack_size);
  processes_.push_back(std::move(proc));
  ++live_count_;
  if (live_count_ > live_high_water_) live_high_water_ = live_count_;
  make_runnable(*p);
  return *p;
}

namespace {

// Checked in every build, like Fiber::resume: an event in the past
// would move virtual time backwards, and a NaN time compares false
// both ways and breaks the heap order.  `!(t >= now)` catches both.
[[noreturn, gnu::cold, gnu::noinline]] void throw_past_event(const char* where,
                                                             Time t, Time now) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "Engine::%s: event time t=%.17g is before now=%.17g",
                where, t, now);
  throw std::logic_error(buf);
}

}  // namespace

std::uint64_t Engine::schedule_at(Time t, std::function<void()> fn) {
  if (!(t >= now_)) throw_past_event("schedule_at", t, now_);
  return events_.push(t, next_seq_++, std::move(fn));
}

void Engine::cancel(std::uint64_t event_id) {
  events_.cancel(event_id);
}

std::uint64_t Engine::reschedule_at(std::uint64_t event_id, Time t) {
  if (!(t >= now_)) throw_past_event("reschedule_at", t, now_);
  // The fresh sequence number keeps same-time ordering exactly as if
  // the event had been cancelled and scheduled anew; it is consumed
  // only on success so the seq stream stays a pure function of the
  // simulated workload.
  if (!events_.reschedule(event_id, t, next_seq_)) return 0;
  ++next_seq_;
  return event_id;
}

void Engine::make_runnable(Process& p) {
  if (p.runnable_ || p.finished()) return;
  p.runnable_ = true;
  run_queue_.push(&p);
}

void Engine::start_abort(std::exception_ptr error) {
  if (!aborted_) {
    aborted_ = true;
    abort_error_ = std::move(error);
  }
  // Wake every blocked process; each resumes inside block(), observes
  // aborted_ and unwinds via AbortError.  wake() enqueues them on the
  // run queue, so the drain loop in progress keeps resuming fibers
  // until all stacks are released.
  for (const auto& p : processes_) {
    if (p->blocked_) p->wake();
  }
}

bool Engine::has_unfinished_process() const {
  for (const auto& p : processes_) {
    if (!p->finished()) return true;
  }
  return false;
}

void Engine::drain_run_queue() {
  while (!run_queue_.empty()) {
    Process* p = run_queue_.front();
    run_queue_.pop();
    p->runnable_ = false;
    if (p->finished()) continue;
    ++switches_;
    p->fiber_->resume();
    if (p->finished()) --live_count_;
    try {
      p->fiber_->rethrow_if_failed();
    } catch (const AbortError&) {
      // Secondary: this fiber was unwound by an abort already in
      // progress; the original cause is held in abort_error_.
    } catch (...) {
      start_abort(std::current_exception());
    }
  }
}

void Engine::run() {
  assert(!running_ && "Engine::run is not reentrant");
  running_ = true;
  drain_run_queue();
  while (!events_.empty() && !aborted_) {
    EventQueue::Event ev = events_.pop();
    if (ev.time > deadline_ && has_unfinished_process()) {
      // Per-cell timeout: the clock stops *at* the deadline (never at
      // the overdue event's time) and the run aborts cooperatively.
      now_ = deadline_;
      start_abort(std::make_exception_ptr(AbortError(
          "virtual-time deadline of " + std::to_string(deadline_) +
          " s exceeded with unfinished processes")));
      drain_run_queue();
      break;
    }
    assert(ev.time >= now_);
    now_ = ev.time;
    ++events_fired_;
    ev.fn();
    drain_run_queue();
  }
  running_ = false;

  if (aborted_) {
    // Every fiber has unwound by now (drain_run_queue resumed each
    // woken process until it threw); surface the original cause.
    std::rethrow_exception(abort_error_);
  }

  for (const auto& p : processes_) {
    if (!p->finished()) {
      throw DeadlockError(
          "simulation ended with blocked process id=" + std::to_string(p->id()) +
          " (no pending events; the simulated workload deadlocked)");
    }
  }
}

}  // namespace balbench::simt
