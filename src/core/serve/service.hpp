// The balbench-serve daemon (DESIGN.md Sec. 17).
//
// One process, three moving parts:
//
//   * an event loop (poll(2)) owning an AF_UNIX listening socket, the
//     client connections and a self-pipe for signals.  It parses
//     request lines, answers ping/stats/shutdown inline, and admits
//     sweep requests into
//   * a bounded AdmissionQueue -- the backpressure valve.  A full
//     queue rejects the request *immediately* with status=overloaded
//     (exit 4 at the client): the service sheds load explicitly
//     instead of accumulating invisible latency, and
//   * one worker thread draining the queue through execute_sweep(),
//     which consults the durable ResultCache before running
//     report::run_experiments on the util::parallel pool.
//
// Crash-safety state machine (proven end to end by the
// serve_kill_recover and serve_chaos ctests):
//
//   SIGTERM/SIGINT/shutdown request -> drain: stop accepting, finish
//     the in-flight sweep, persist the still-queued requests to
//     "<cache>.queue.json" (a "serve-queue" journal), exit 0.  The
//     next start re-admits them as recovered jobs.
//   SIGKILL -> nothing runs, but nothing is lost: the cache journal
//     replays (half-written entries quarantined), the in-flight
//     sweep's checkpoint journal resumes, and a re-issued request
//     produces byte-identical bytes.
//
// Determinism note: the *server-side* --jobs knob parallelizes one
// sweep's cells; it is deliberately absent from the wire protocol and
// the cache key, because records are byte-identical for every jobs
// value -- requests served at --jobs 1, 2 and 4 share one cache line
// (asserted by tests/serve/serve_test.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/serve/cache.hpp"
#include "core/serve/protocol.hpp"
#include "obs/metrics.hpp"

namespace balbench::serve {

/// One admitted unit of work.  `conn` is an opaque connection token
/// the event loop resolves back to a socket; -1 marks a job recovered
/// from a persisted queue, which runs for its cache side effect and
/// answers nobody.
struct Job {
  ServeRequest req;
  int conn = -1;
};

/// Bounded FIFO between the event loop and the worker: the admission-
/// control half of the service, separated out so its rejection
/// ordering is unit-testable without sockets.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admits `job`, or refuses (queue full / queue closed) without
  /// blocking -- the caller turns a refusal into status=overloaded.
  bool try_push(Job job);

  /// Blocks for the next job; nullopt once the queue is closed AND
  /// empty (the worker's exit condition).
  std::optional<Job> pop();

  /// Closes the queue (no further admissions) and wakes poppers.
  void close();

  /// Closes and returns everything still queued, FIFO order -- the
  /// drain path persists these.
  std::vector<Job> drain();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Job> jobs_;
  bool closed_ = false;
};

struct ServeConfig {
  std::string socket_path;
  std::string cache_path;
  int jobs = 1;
  std::size_t queue_depth = 8;
  /// Test hook: hold each sweep for this many wall seconds before
  /// running it, so smoke tests can deterministically fill the queue.
  double hold_s = 0.0;
  /// Test hook, forwarded to ExperimentOptions::kill_after: SIGKILL
  /// after N newly checkpointed tasks (0 = never).  This is how
  /// serve_kill_recover crashes the server mid-sweep without racing a
  /// kill(1) against a 0.4 s sweep.
  int kill_after = 0;
  bool verbose = false;
};

/// The cache key of a sweep request: (git rev, config hash, scenario
/// hash).  Parses the inline scenario (throws like parse_scenario_text
/// on bad input); the scenario hash is "-" for the built-in sweep.
/// Pure function of (request, git_rev) -- in particular independent of
/// ServeConfig::jobs, which is what the cross-jobs cache test pins.
CacheKey sweep_cache_key(const ServeRequest& req, const std::string& git_rev);

/// Runs (or serves from cache) one sweep request.  Clean cacheable
/// results are committed to `cache`; faults/deadline requests bypass
/// it (their record bytes depend on the plan).  Progress metrics land
/// in `reg` under "serve.*" names.  Never throws: failures come back
/// as status=error responses.
ServeResponse execute_sweep(const ServeRequest& req,
                            const std::string& git_rev, ResultCache& cache,
                            const ServeConfig& cfg, obs::Registry& reg);

/// The SIGTERM drain queue: a "serve-queue" journal of request wire
/// lines in admission order.  load_queue re-validates each line like a
/// socket line; a missing file is an empty queue.
std::string queue_file_path(const std::string& cache_path);
void persist_queue(const std::string& path, const std::vector<Job>& jobs);
std::vector<ServeRequest> load_queue(const std::string& path);

/// The daemon.  Construct, then run() until a drain; returns the
/// process exit code (0 = clean drain, 1 = fatal setup error).
class Service {
 public:
  explicit Service(ServeConfig cfg);
  int run();

 private:
  ServeConfig cfg_;
};

}  // namespace balbench::serve
