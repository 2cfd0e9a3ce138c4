// Wall-clock profiler: scope spans and scheduler telemetry for the
// benchmark harness itself (DESIGN.md Sec. 11).
//
// The metrics registry (obs/metrics.hpp) observes *virtual* time and
// feeds byte-compared run records; this profiler observes *host* time
// and feeds nothing but stderr summaries, wall-profile JSON and the
// "wall" pid of a Chrome trace.  The two never mix: per the Sec. 10.2
// invariant no wall-clock quantity may enter a run record, and
// attaching a profiler must not change a single byte of any benchmark
// output (asserted by tests/report/run_record_test.cpp running with a
// profiler attached).
//
// Design mirrors the registry: one process-wide attach point
// (prof::attach), instrumentation sites that cost a single relaxed
// atomic load when detached (prof::Scope), and thread-local span logs
// so recording never takes a lock.  Each thread owns a fixed-capacity
// log registered on first use; spans publish with a release store of
// the log's count, so an exporter running concurrently reads a
// consistent prefix (write-once slots, no overwriting).  When a log
// fills up new spans are dropped and counted, never silently lost.
//
// Scheduler telemetry: Profiler implements util::PoolObserver, so
// attaching it instruments every util::parallel_for batch -- per-task
// wall time, per-batch wall windows -- from which it derives the
// numbers that tell whether --jobs actually helps:
// critical-path estimate (sum over batches of the longest task),
// parallel efficiency (task-seconds / workers x wall), idle time
// (workers x wall - task-seconds).
//
// Lifetime: detach() before destroying the profiler, and destroy it
// only after every parallel_for that ran while it was attached has
// returned (parallel_for joins its threads before returning, so the
// tool-level pattern "attach, run, detach, export" is always safe).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/parallel.hpp"

namespace balbench::obs::prof {

/// One completed wall-clock span.  `thread` is the profiler-assigned
/// log index (not an OS tid): 0 is the first thread that recorded.
struct Span {
  std::string label;          // "" for unlabeled scopes and pool tasks
  const char* category = "";  // static string: "cell", "beff", "task", ...
  std::uint32_t thread = 0;
  double start = 0.0;  // seconds on the util::wall_now() axis
  double dur = 0.0;
};

/// Telemetry of one util::parallel_for batch.
struct BatchTelemetry {
  std::uint64_t batch = 0;
  std::size_t tasks = 0;
  int workers = 0;
  double wall_seconds = 0.0;       // batch begin -> end
  double task_seconds = 0.0;       // sum of task durations
  double max_task_seconds = 0.0;   // longest single task
};

/// Scheduler telemetry aggregated over every observed batch.
struct SchedulerTelemetry {
  std::vector<BatchTelemetry> batches;
  std::uint64_t tasks = 0;
  double task_seconds = 0.0;
  double wall_seconds = 0.0;  // sum of batch walls
  /// Lower bound on achievable wall time at infinite workers: the
  /// longest task of each batch chains through the batch barrier, so
  /// the estimate is the sum over batches of the longest task.
  double critical_path_seconds = 0.0;
  /// Worker-seconds spent not executing tasks: sum over batches of
  /// workers x wall - task-seconds (thread start-up and tail idleness
  /// while stragglers finish).
  double idle_seconds = 0.0;
  /// task-seconds / sum(workers x wall); 1.0 = every worker busy the
  /// whole time, 1/workers = the sweep ran effectively serially.
  [[nodiscard]] double efficiency() const;
  /// task-seconds / wall-seconds: the realized speedup over running
  /// the same tasks back to back on one thread.
  [[nodiscard]] double speedup() const;
};

class Profiler : public util::PoolObserver {
 public:
  /// `capacity_per_thread` bounds each thread's span log; spans beyond
  /// it are dropped and counted in dropped_spans().
  explicit Profiler(std::size_t capacity_per_thread = std::size_t{1} << 14);
  ~Profiler() override;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Records a completed span ending now; prof::Scope is the usual
  /// caller.  Wait-free against other threads (thread-local log).
  void record(const char* category, std::string label, double start_seconds,
              double end_seconds);

  // util::PoolObserver -- scheduler telemetry.  Tasks are also
  // recorded as spans (category "task") so they appear on the wall
  // timeline of the Chrome trace.
  void on_batch_begin(std::uint64_t batch, std::size_t n, int workers,
                      double start_seconds) override;
  void on_batch_end(std::uint64_t batch, double end_seconds) override;
  void on_task(std::uint64_t batch, std::size_t index, int worker,
               double start_seconds, double end_seconds) override;

  /// Every span recorded so far, sorted by (thread, start, dur, label)
  /// for a stable presentation.  Safe to call while threads are still
  /// recording (each log contributes a consistent prefix), but the
  /// usual pattern is to export after the instrumented work finished.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] SchedulerTelemetry scheduler() const;
  [[nodiscard]] std::uint64_t dropped_spans() const;

 private:
  struct ThreadLog;
  ThreadLog* log_for_this_thread();

  const std::size_t capacity_;
  const std::uint64_t id_;  // process-unique, keys the TLS log cache
  mutable std::mutex mutex_;  // guards logs_ layout and batches_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::vector<BatchTelemetry> batches_;  // wall window filled at batch end
};

/// Attaches `p` as the process-wide profiler and as the scheduler's
/// util::PoolObserver (nullptr detaches both).  Instrumentation sites
/// read the pointer with one relaxed atomic load -- zero cost while
/// detached.
void attach(Profiler* p);
[[nodiscard]] Profiler* current();

/// RAII scope span: records [construction, destruction) into the
/// attached profiler under `category`/`label`.  When no profiler is
/// attached construction is a single atomic load and no label copy is
/// made.  The category must be a string literal (stored by pointer).
class Scope {
 public:
  explicit Scope(const char* category, std::string_view label = {});
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Profiler* profiler_;  // captured once; attach() mid-scope is ignored
  double start_ = 0.0;
  const char* category_;
  std::string label_;
};

/// Writes the wall-profile JSON (schema "balbench-wall-profile/1"):
/// scheduler telemetry, per-category totals, and every span.  All
/// values are host wall-clock seconds -- this file is observe-only and
/// is never byte-compared (two runs of the same configuration produce
/// different profiles; that is the point).
void write_profile(std::ostream& os, const Profiler& profiler);

/// Two-line human summary of the scheduler telemetry to `os` (the
/// tools print it to stderr after a sweep when profiling is on).
void write_summary(std::ostream& os, const Profiler& profiler);

}  // namespace balbench::obs::prof
