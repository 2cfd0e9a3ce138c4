// Wall-profile merging (DESIGN.md Sec. 13.4).
//
// "balbench-wall-profile/1" files are per-invocation and noisy on a
// loaded CI machine; summing the category rollups and scheduler
// telemetry of N runs yields one stable aggregate record.  The merged
// output keeps the same schema (plus a "merged_runs" count) and drops
// the raw span list -- spans are per-run detail, the merge is about
// totals.  A merged record is itself mergeable, and the merge is a
// pure sum: merge(A, merge(B, C)) == merge(merge(A, B), C) whenever
// the additions are exact (asserted with binary-exact values in
// tests/history/wall_merge_test.cpp); inputs are otherwise folded in
// argument order, so a fixed input order gives fixed output bytes.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "obs/json.hpp"

namespace balbench::history {

struct WallCategory {
  std::uint64_t count = 0;
  double seconds = 0.0;
};

/// Sum of N wall profiles (N >= 1).  A single profile parses to the
/// degenerate merge with runs == 1.
struct WallProfileMerge {
  std::uint64_t runs = 0;
  std::uint64_t dropped_spans = 0;
  // Scheduler telemetry sums across runs.
  std::uint64_t batches = 0;
  std::uint64_t tasks = 0;
  double task_seconds = 0.0;
  double wall_seconds = 0.0;
  double critical_path_seconds = 0.0;
  double idle_seconds = 0.0;
  /// Sum over batches of workers x batch wall; lets the merged record
  /// recompute parallel efficiency without the per-batch detail.
  double worker_seconds = 0.0;
  std::map<std::string, WallCategory> categories;

  [[nodiscard]] double efficiency() const {
    return worker_seconds > 0.0 ? task_seconds / worker_seconds : 0.0;
  }
  [[nodiscard]] double speedup() const {
    return wall_seconds > 0.0 ? task_seconds / wall_seconds : 0.0;
  }
};

/// Parses one "balbench-wall-profile/1" document -- either a raw
/// profile written by obs::prof::write_profile (runs == 1;
/// worker_seconds recovered from the per_batch array) or an already
/// merged record (runs == its "merged_runs").  Keys it does not read
/// are ignored, such as the `stolen_*` keys that profiles of earlier
/// builds carry.  Throws std::runtime_error on schema violations.
WallProfileMerge parse_wall_profile(const obs::JsonValue& doc);

/// acc += other (all counters and category rollups summed).
void merge_wall_profiles(WallProfileMerge& acc, const WallProfileMerge& other);

/// Writes the merged record: schema "balbench-wall-profile/1",
/// "merged_runs", summed scheduler block (with recomputed efficiency /
/// speedup) and summed category rollups.  Deterministic bytes for a
/// given merge value.
void write_merged_wall_profile(std::ostream& os, const WallProfileMerge& m);

}  // namespace balbench::history
