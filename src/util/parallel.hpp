// Parallel sweep scheduler: one in-order loop over independent cells.
//
// The benchmark suite is a large space of *independent simulation
// cells* (pattern x method for b_eff, pattern-type chains for b_eff_io,
// kernel suites; report::run_cells lists them).  Every cell is
// a pure function of its inputs -- the simt engine consults no wall
// clock and breaks ties deterministically -- so cells may execute on
// any host thread in any order without changing a single reported
// number, PROVIDED that
//
//   1. no two cells share mutable state (each cell constructs its own
//      simt::Engine / transport), and
//   2. results are collected into pre-sized slots indexed by cell id
//      and reduced in index order afterwards (ordered reduction).
//
// parallel_for runs the calling thread plus min(resolve_jobs(jobs), n)
// - 1 helper threads, joined before it returns.  Each of them claims
// the next index with one fetch_add on a shared counter, so tasks
// *start* in index order and a free worker always takes the lowest
// unclaimed index.  A caller that lists its most expensive tasks first
// thereby gets a largest-first greedy list schedule without any queue
// of its own (DESIGN.md Sec. 9 shows report::run_cells' list).
//
// Failure contract, the same for every jobs value: once a task throws,
// no further index is claimed; tasks already claimed run to the end;
// the exception of the lowest failing index is rethrown.  Claims are
// in index order, so every index below the first failure has run and
// the rethrown index is deterministic.
#pragma once

#include <cstdint>
#include <functional>

namespace balbench::util {

/// Host-side scheduler telemetry sink (wall-clock observability,
/// DESIGN.md Sec. 11).  Everything delivered here is host-side --
/// wall-clock seconds from util::wall_now() and worker ids -- and per
/// the determinism invariant of Sec. 10.2 none of it may ever flow
/// into a run record or any byte-compared output; observers report to
/// stderr or to wall-profile files only.  obs::prof::Profiler is the
/// canonical implementation.
///
/// Threading: on_batch_begin/on_batch_end fire on the thread calling
/// parallel_for; on_task fires concurrently from every worker thread.
/// Implementations must be thread-safe.  An attached observer must
/// outlive every parallel_for that ran while it was attached.
class PoolObserver {
 public:
  virtual ~PoolObserver() = default;
  /// Batch `batch` (process-unique, counting from 1) of `n` tasks is
  /// starting on `workers` workers.
  virtual void on_batch_begin(std::uint64_t batch, std::size_t n, int workers,
                              double start_seconds) {
    (void)batch, (void)n, (void)workers, (void)start_seconds;
  }
  virtual void on_batch_end(std::uint64_t batch, double end_seconds) {
    (void)batch, (void)end_seconds;
  }
  /// body(index) ran on `worker` from start to end, whether or not it
  /// threw.  Every on_task call happens-before the owning parallel_for
  /// returns, so idle time is derivable as workers x batch wall -
  /// sum(task durations).
  virtual void on_task(std::uint64_t batch, std::size_t index, int worker,
                       double start_seconds, double end_seconds) {
    (void)batch, (void)index, (void)worker;
    (void)start_seconds, (void)end_seconds;
  }
};

/// Attaches the process-wide scheduler observer (nullptr detaches).
/// parallel_for reads the pointer once per batch; detached is the
/// default and task bodies then pay nothing.
void set_pool_observer(PoolObserver* observer);
[[nodiscard]] PoolObserver* pool_observer();

/// Number of hardware threads, at least 1.
int hardware_jobs();

/// Most workers resolve_jobs() grants: absurd thread counts are refused.
inline constexpr int kMaxJobs = 1024;

/// Resolve a user-supplied --jobs value: <= 0 means "use the hardware
/// concurrency", values above kMaxJobs are capped, anything else is
/// taken literally.
int resolve_jobs(std::int64_t requested);

/// Runs body(0) .. body(n-1) on resolve_jobs(jobs) workers (never more
/// than n; one worker runs everything inline on the caller, so
/// `--jobs 1` is exactly the serial program).  Blocks until every
/// claimed task finished; see the failure contract above.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace balbench::util
