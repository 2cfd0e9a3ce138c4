// Crash-safe checkpoint journals (DESIGN.md Sec. 12.3): obs journals
// (obs/journal.hpp) of kind "sweep-checkpoint" (report::Checkpoint,
// task key -> {"kind": "beff"|"beffio", ...}) and "perf-checkpoint"
// (report::PerfCheckpoint, cell id -> [sample seconds, ...]).
//
// Every completed sweep task is serialized in full -- every measured
// number, the merged metrics snapshot, and (under a fault plan) the
// per-cell retry outcomes -- so a resumed sweep replays the task
// instead of re-simulating it and produces byte-identical final
// outputs (the robust_kill_resume ctest SIGKILLs a sweep mid-flight
// and byte-compares the resumed record against an uninterrupted run).
// The journal is atomically rewritten after every completed task or
// cell, so a crash leaves the previous or the new journal, never a
// torn one.  A journal of another config (scope, fault spec, spec
// list revision; for perf the sampling parameters) is discarded on
// resume rather than replayed into the wrong configuration.
//
// Serialization is lossless for every value the results can hold in
// practice: doubles round-trip through obs::json_double's shortest
// form, integers are exact below 2^53 (all simulated counts are).
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/beff/beff.hpp"
#include "core/beffio/beffio.hpp"
#include "obs/json.hpp"

namespace balbench::report {

/// The metrics-snapshot JSON object of both the task payloads and the
/// run record.
void write_metrics(obs::JsonWriter& w, const obs::MetricsSnapshot& m);

/// Lossless JSON round-trip of one benchmark result.  Exposed for the
/// round-trip unit tests; the journal is the real consumer.
void write_beff_result(obs::JsonWriter& w, const beff::BeffResult& r);
beff::BeffResult read_beff_result(const obs::JsonValue& v);
void write_beffio_result(obs::JsonWriter& w, const beffio::BeffIoResult& r);
beffio::BeffIoResult read_beffio_result(const obs::JsonValue& v);

class Checkpoint {
 public:
  /// Binds the journal to `path` for a sweep identified by
  /// `config_key`.  With `resume` set, an existing journal is loaded
  /// and its completed tasks become replayable; a missing, malformed
  /// or configuration-mismatched journal starts empty (with a stderr
  /// note -- resuming silently into the wrong config would be worse
  /// than re-running).  Without `resume`, any existing journal is
  /// ignored and overwritten by the first record_*() call.
  Checkpoint(std::string path, std::string config_key, bool resume);

  /// True if `task` was loaded from the journal (replayable).
  [[nodiscard]] bool has(const std::string& task) const;

  /// Replays a completed task into `out`; false if the journal has no
  /// such task (or it was recorded with the other kind).
  bool load_beff(const std::string& task, beff::BeffResult* out) const;
  bool load_io(const std::string& task, beffio::BeffIoResult* out) const;

  /// Records a completed task and atomically rewrites the journal.
  /// Thread-safe: concurrent sweep workers serialize on one mutex, so
  /// the on-disk journal always holds a prefix-consistent task set.
  void record_beff(const std::string& task, const beff::BeffResult& r);
  void record_io(const std::string& task, const beffio::BeffIoResult& r);

  /// Tasks recorded by THIS process (excludes replayed ones); the
  /// --kill-after test hook counts these.
  [[nodiscard]] std::size_t recorded() const;

 private:
  static constexpr const char* kKind = "sweep-checkpoint";
  /// The parsed payload of `task` if it was recorded with `kind`.
  std::optional<obs::JsonValue> payload(const std::string& task,
                                        const char* kind) const;
  void record(const std::string& task, std::string payload);

  std::string path_;
  std::string config_key_;
  mutable std::mutex mutex_;
  /// task key -> canonical serialized payload ("kind" discriminated).
  std::map<std::string, std::string> payloads_;
  std::size_t recorded_ = 0;
};

/// balbench-perf's journal of completed cells' raw samples.  The
/// config key pins the cell list AND --repeat/--warmup/--handicap.
/// Resume semantics as Checkpoint's; single-threaded.
class PerfCheckpoint {
 public:
  PerfCheckpoint(std::string path, std::string config_key, bool resume);

  /// The replayed samples of cell `id`; false if it has none.
  bool load(const std::string& id, std::vector<double>* samples) const;

  /// Records a completed cell and atomically rewrites the journal.
  void record(const std::string& id, const std::vector<double>& samples);

 private:
  static constexpr const char* kKind = "perf-checkpoint";
  std::string path_;
  std::string config_key_;
  std::map<std::string, std::vector<double>> cells_;
};

}  // namespace balbench::report
