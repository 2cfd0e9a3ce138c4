// Discrete-event engine with virtual time and simulated processes.
//
// Model: a set of processes (fibers) plus a time-ordered event queue.
// The engine runs every runnable process until it blocks, then pops the
// next event, advances the virtual clock and fires the event's
// callback (which typically wakes processes).  Simulation ends when no
// process is runnable and no event is pending; if unfinished processes
// remain at that point the workload deadlocked and the engine throws.
//
// Determinism: ties in event time break by insertion order, runnable
// processes execute in FIFO order, and no wall-clock source is
// consulted anywhere — a simulation is a pure function of its inputs.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "simt/fiber.hpp"

namespace balbench::simt {

/// Virtual time in seconds.
using Time = double;

class Engine;

/// A simulated process.  Instances are created via Engine::spawn and
/// owned by the engine; user code receives references.
class Process {
 public:
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] bool finished() const { return fiber_->finished(); }

  /// Block the calling process for `dt` seconds of virtual time.
  /// Must be called from inside this process.
  void sleep(Time dt);

  /// Block until another party calls wake().  Returns the virtual time
  /// at wake-up.
  Time block();

  /// Make a blocked process runnable again (called from event
  /// callbacks or from other processes).
  void wake();

 private:
  friend class Engine;
  Process(Engine* engine, int id) : engine_(engine), id_(id) {}

  Engine* engine_;
  int id_;
  std::unique_ptr<Fiber> fiber_;
  bool runnable_ = false;   // queued in the run queue
  bool blocked_ = false;    // waiting for wake()
};

/// Min-heap of pending events ordered by (time, seq) with an index
/// from a stable per-event *handle* to the heap position, so cancel
/// and reschedule are O(log n) instead of the tombstone-list scan
/// every pop used to pay (docs/SIMULATOR.md "Event queue").  The
/// sequence number is the deterministic tie-break: two events at the
/// same virtual time fire in scheduling order.  Handles are small
/// recycled integers tagged with a generation counter, so the position
/// index is a flat vector (no hashing on the heap's hot sift path) and
/// a stale id -- its event already fired or cancelled -- is recognised
/// and ignored.  The heap moves only 24-byte (time, seq, slot) keys;
/// callbacks stay put in a table indexed by handle slot.
class EventQueue {
 public:
  /// A popped event.
  struct Event {
    Time time = 0.0;
    std::function<void()> fn;
  };

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Returns a non-zero id for cancel()/reschedule().  `seq` is the
  /// caller-provided tie-break and must be unique among pending events.
  std::uint64_t push(Time time, std::uint64_t seq, std::function<void()> fn);
  /// Removes and returns the earliest pending event: smallest (time,
  /// seq).  Throws std::logic_error on an empty queue, in every build.
  Event pop();
  /// Removes the event with this id.  Returns false (and does nothing)
  /// if it is not pending -- already fired, cancelled, or never
  /// scheduled.
  bool cancel(std::uint64_t id);
  /// Moves a pending event to (time, new_seq), keeping its callback
  /// and its id.  Equivalent to cancel + push of the same fn but
  /// without touching the std::function.  Returns false if `id` is
  /// not pending.
  bool reschedule(std::uint64_t id, Time time, std::uint64_t new_seq);

 private:
  struct Key {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;  // owning handle slot
  };
  /// Handle table entry; `pos` is kInvalidPos while the slot is free.
  struct Slot {
    std::uint32_t pos = 0;
    std::uint32_t generation = 1;  // >= 1, so no valid id is ever 0
  };
  static constexpr std::uint32_t kInvalidPos = 0xFFFFFFFFu;

  /// (time, seq) is a strict total order (seqs are unique, times never
  /// NaN), so the pop order does not depend on the heap's shape.
  [[nodiscard]] static bool before(const Key& a, const Key& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }
  /// Heap position of the event with this id, or kInvalidPos.
  [[nodiscard]] std::uint32_t find(std::uint64_t id) const;
  void release_slot(std::uint32_t slot);
  /// Moves `key` from the hole at position i up or down to its place.
  void sift_up(std::size_t i, Key key);
  void sift_down(std::size_t i, Key key);
  /// Removes heap position i, restoring the heap property.
  void remove_at(std::size_t i);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::function<void()>> fns_;  // by slot
  std::vector<std::uint32_t> free_slots_;
};

class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown out of Process::block() in every process of an aborting
/// simulation so each fiber unwinds its own stack cleanly (running
/// destructors, releasing buffers) instead of being abandoned
/// mid-suspend.  Engine::run() rethrows the *original* abort cause;
/// the per-fiber AbortErrors are secondary and never escape.
class AbortError : public std::runtime_error {
 public:
  explicit AbortError(const std::string& what) : std::runtime_error(what) {}
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  [[nodiscard]] Time now() const { return now_; }

  /// Create a process executing `fn(process)`.  Must be called before
  /// or during run(); processes spawned during the run start
  /// immediately (at the current virtual time).  `stack_size` 0 means
  /// StackPool::default_stack_size(); pass a size to override it for
  /// this process.
  Process& spawn(std::function<void(Process&)> fn, std::size_t stack_size = 0);

  /// Schedule `fn` to run at absolute virtual time `t` (>= now).
  /// Returns an id usable with cancel().  Throws std::logic_error
  /// naming `t` and now when `t` is in the past or NaN, in every build.
  std::uint64_t schedule_at(Time t, std::function<void()> fn);
  std::uint64_t schedule_after(Time dt, std::function<void()> fn) {
    return schedule_at(now_ + dt, std::move(fn));
  }

  /// Cancel a scheduled event.  No-op if it already fired.  O(log n).
  void cancel(std::uint64_t event_id);

  /// Move a pending event to absolute time `t` (>= now), keeping its
  /// callback and its id but assigning a fresh internal sequence
  /// number, so same-time ordering is exactly as if the event had been
  /// cancelled and rescheduled.  Returns the id on success, or 0 (and
  /// leaves the queue untouched) if `event_id` is not pending.
  /// O(log n).  A past or NaN `t` throws as in schedule_at().
  std::uint64_t reschedule_at(std::uint64_t event_id, Time t);
  std::uint64_t reschedule_after(std::uint64_t event_id, Time dt) {
    return reschedule_at(event_id, now_ + dt);
  }

  /// Run until all processes finished and the event queue is empty.
  /// Throws DeadlockError if processes remain blocked with no pending
  /// events.  If a process throws, the engine *aborts cooperatively*:
  /// every other live process is woken and unwinds via AbortError, and
  /// the first (original) exception is rethrown once all fiber stacks
  /// have been released -- a failed session never leaks fiber state.
  void run();

  /// Virtual-time deadline for this run.  Once the next event would
  /// fire strictly after `t` while unfinished processes remain, the
  /// engine stops at `t` and aborts with an AbortError (the retry
  /// layer's per-cell timeout, DESIGN.md Sec. 12.2).  Implemented as a
  /// check in the event loop, not as a scheduled event, so setting an
  /// unreachable deadline leaves the event sequence -- and therefore
  /// every reported number -- untouched.  Default: no deadline.
  void set_deadline(Time t) { deadline_ = t; }

  /// True once an abort started; Process::block() throws from then on.
  [[nodiscard]] bool aborted() const { return aborted_; }

  /// Number of processes spawned so far.
  [[nodiscard]] std::size_t process_count() const { return processes_.size(); }

  /// Statistics for engine micro-benchmarks.
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }
  [[nodiscard]] std::uint64_t context_switches() const { return switches_; }
  /// Largest number of processes alive (spawned, unfinished) at once.
  /// A pure function of the simulated configuration, so safe for run
  /// records (DESIGN.md Sec. 10.2).
  [[nodiscard]] std::size_t live_process_high_water() const {
    return live_high_water_;
  }

 private:
  friend class Process;

  void make_runnable(Process& p);
  void drain_run_queue();
  void start_abort(std::exception_ptr error);
  [[nodiscard]] bool has_unfinished_process() const;

  Time now_ = 0.0;
  Time deadline_ = std::numeric_limits<Time>::infinity();
  bool aborted_ = false;
  std::exception_ptr abort_error_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_fired_ = 0;
  std::uint64_t switches_ = 0;
  std::size_t live_count_ = 0;
  std::size_t live_high_water_ = 0;
  std::vector<std::unique_ptr<Process>> processes_;
  EventQueue events_;
  std::queue<Process*> run_queue_;
  bool running_ = false;
};

}  // namespace balbench::simt
