#include "simt/engine.hpp"

#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace balbench::simt {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

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
  free_slots_.push_back(slot);
}

void EventQueue::move_to(std::size_t dst, std::size_t src) {
  heap_[dst] = std::move(heap_[src]);
  slots_[heap_[dst].slot].pos = static_cast<std::uint32_t>(dst);
}

void EventQueue::sift_up(std::size_t i) {
  Event ev = std::move(heap_[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    const Event& p = heap_[parent];
    if (p.time < ev.time || (p.time == ev.time && p.seq < ev.seq)) break;
    move_to(i, parent);
    i = parent;
  }
  heap_[i] = std::move(ev);
  slots_[heap_[i].slot].pos = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Event ev = std::move(heap_[i]);
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(child + 1, child)) ++child;
    const Event& c = heap_[child];
    if (ev.time < c.time || (ev.time == c.time && ev.seq < c.seq)) break;
    move_to(i, child);
    i = child;
  }
  heap_[i] = std::move(ev);
  slots_[heap_[i].slot].pos = static_cast<std::uint32_t>(i);
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
  }
  heap_.push_back(Event{time, seq, slot, std::move(fn)});
  sift_up(heap_.size() - 1);
  return (static_cast<std::uint64_t>(slots_[slot].generation) << 32) |
         static_cast<std::uint64_t>(slot);
}

EventQueue::Event EventQueue::pop() {
  assert(!heap_.empty());
  Event ev = std::move(heap_.front());
  release_slot(ev.slot);
  if (heap_.size() > 1) {
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
  return ev;
}

void EventQueue::remove_at(std::size_t i) {
  release_slot(heap_[i].slot);
  const std::size_t last = heap_.size() - 1;
  if (i == last) {
    heap_.pop_back();
    return;
  }
  heap_[i] = std::move(heap_[last]);
  heap_.pop_back();
  // The element filling the hole may need to travel either direction.
  const std::uint32_t moved = heap_[i].slot;
  sift_down(i);
  sift_up(slots_[moved].pos);
}

bool EventQueue::cancel(std::uint64_t id) {
  const std::uint32_t pos = find(id);
  if (pos == kInvalidPos) return false;
  remove_at(pos);
  return true;
}

bool EventQueue::reschedule(std::uint64_t id, Time time, std::uint64_t new_seq) {
  const std::uint32_t pos = find(id);
  if (pos == kInvalidPos) return false;
  heap_[pos].time = time;
  heap_[pos].seq = new_seq;
  const std::uint32_t slot = heap_[pos].slot;
  sift_down(pos);
  sift_up(slots_[slot].pos);
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
