// Perf-history store and trend analysis (DESIGN.md Sec. 13).
//
// One `balbench-perf --out` run is a point-in-time snapshot: it tells
// you how fast this revision is, but a slow drift -- 2 % per commit
// for ten commits -- passes every single-baseline gate and still ends
// 20 % slower.  The history store turns those snapshots into a tracked
// series:
//
//   * an append-only "balbench-perf-history/2" JSON file of entries
//     keyed by (git revision, config hash, host).  balbench-perf writes
//     its run as a one-entry document of the same schema, which
//     `balbench-history ingest` appends.  The same key may appear once:
//     re-recording a revision must replace history consciously
//     (--replace), never silently.
//     Entries with different config hashes or hosts are NEVER compared
//     against each other -- a machine change or a suite change is not
//     a regression;
//   * per-revision robust statistics (util::robust_summary: median,
//     MAD, bootstrap 95 % CI of the median) recomputed from the stored
//     raw samples, so the analysis can be re-run with better stats
//     without re-measuring anything;
//   * sliding-window CI-overlap drift detection: the newest revision
//     of a cell regresses iff its optimistic CI edge is slower (beyond
//     a slack) than even the pessimistic CI edge of the *fastest*
//     revision in the last `window` revisions -- a slow multi-commit
//     drift trips the window even when every adjacent pair overlaps;
//   * a deterministic markdown section (trend tables + ASCII chart)
//     spliced into EXPERIMENTS.md between PERF HISTORY markers
//     (util::splice_sections, by `balbench-history render`).  The
//     section is a pure function of the store file, so the
//     history_doc_drift ctest can byte-compare it forever.
//
// Everything in this module is HOST wall-clock data *about* the
// harness; per the DESIGN.md Sec. 10.2 invariant none of it may ever
// feed a benchmark number.  Hunold & Carpen-Amarie ("MPI Benchmarking
// Revisited", PAPERS.md) motivate the design: honest benchmarking
// tracks run-to-run variance across repetitions AND revisions, not
// single numbers.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace balbench::history {

/// One cell of one ingested snapshot: the raw samples, from which
/// every statistic is recomputed at analysis time.
struct HistoryCell {
  std::string id;     // "suite.name[...]", unique within the entry
  std::string suite;  // "micro" | "sweep" | "kernels" | "calib"
  std::vector<double> samples;  // host seconds, in run order
};

/// One balbench-perf run: what it measured, where and how.
struct HistoryEntry {
  std::string git_rev;
  std::string config_hash;  // FNV-1a over the run's cell list
  std::string host;         // machine label (--host or gethostname)
  std::string suite_spec;   // the run's --suite spelling
  int repeat = 0;
  int warmup = 0;
  std::vector<HistoryCell> cells;
};

/// The append-only store.  Entry order is ingest order and is the
/// revision axis of every trend -- the store never sorts.
struct History {
  std::vector<HistoryEntry> entries;
};

/// Parses a "balbench-perf-history/2" document.  Throws
/// std::runtime_error with a pointed message on any schema violation
/// (missing fields, empty samples, wrong schema string, a `repeat` or
/// `warmup` that is not an integer in range).
History parse_history(std::string_view text);

/// Serializes the store (schema "balbench-perf-history/2") with the
/// deterministic JsonWriter formatting; same store, same bytes.
void write_history(std::ostream& os, const History& h);

/// Reads the store file at `path`.  A missing file is an empty store;
/// an unreadable or corrupt one throws std::runtime_error whose
/// message starts with the path, followed by the obs::parse_json
/// line/column/key-path diagnostics.
History load_history(const std::string& path);

/// load_history for the readers: a missing file is an error ("cannot
/// read PATH") instead of an empty store, which only ingest wants.
History load_existing_history(const std::string& path);

/// The machine label balbench-perf gives its entry when no --host is
/// given: the gethostname, or "unknown-host".
std::string default_host();

/// Writes the store to `path` through util::atomic_write.
void save_history(const std::string& path, const History& h);

/// Appends `entry` to the store.  Throws std::runtime_error if --
/// unless `replace` is set -- an entry with the same (git_rev,
/// config_hash, host) key already exists.  With `replace`, a
/// deliberate re-ingest overwrites the existing entry *in place*,
/// keeping its position on the revision axis.  Returns the stored
/// entry.
const HistoryEntry& ingest(History& h, HistoryEntry entry,
                           bool replace = false);

/// Deterministic plain-text inventory of the store: one line per
/// entry -- (rev x host x suite) with cell and sample counts -- sorted
/// by (host, config hash, revision-axis position), plus a totals
/// footer.
void render_list(std::ostream& os, const History& h);

// ---------------------------------------------------------------------------
// Trend analysis
// ---------------------------------------------------------------------------

/// Sliding-window length: the newest revision is compared against up
/// to this many preceding revisions of the same (config hash, host)
/// group, not just the adjacent one.
inline constexpr int kTrendWindow = 5;

struct TrendOptions {
  /// Regression slack, as a fraction of the window's pessimistic CI
  /// edge.  `balbench-perf --baseline` gates with this same rule and
  /// default: it is the one regression rule.
  double threshold = 0.10;
};

enum class Verdict {
  Ok,         ///< newest CI within the window's gate band (or slack)
  Regressed,  ///< newest ci_lo > window min ci_hi * (1 + threshold)
  Improved,   ///< newest ci_hi < window min ci_lo
  New,        ///< cell absent from every preceding revision in window
};
const char* verdict_name(Verdict v);

/// Trend of one cell within one (config hash, host) group.
struct CellTrend {
  std::string id;
  std::string suite;
  /// Median per group revision; NaN where the cell is absent.
  std::vector<double> medians;
  std::size_t revisions = 0;        // revisions the cell appears in
  util::RobustSummary latest;       // newest revision's robust stats
  double window_median = 0.0;       // median of the window's medians
  double window_ci_lo = 0.0;        // min ci_lo over the window
  /// min ci_hi over the window: the fastest window revision's
  /// pessimistic edge, i.e. the regression gate.
  double window_ci_hi = 0.0;
  Verdict verdict = Verdict::New;
};

/// All trends of one (config hash, host) group, revisions in ingest
/// order.  Groups with a single revision have trend-less cells
/// (verdict New, no window) -- they render as a "need two revisions"
/// placeholder, never as drift.
struct GroupTrend {
  std::string config_hash;
  std::string host;
  std::string suite_spec;           // newest entry's spelling
  std::vector<std::string> revs;    // git revisions, ingest order
  std::vector<CellTrend> cells;     // sorted by (suite, id)
  std::size_t regressed = 0;
  std::size_t improved = 0;
  [[nodiscard]] bool drifted() const { return regressed > 0; }
};

/// Groups the store by (config hash, host) in first-appearance order
/// and computes every cell trend.  Pure function of (store, options).
std::vector<GroupTrend> analyze_trends(const History& h,
                                       const TrendOptions& options);

// ---------------------------------------------------------------------------
// EXPERIMENTS.md trend section
// ---------------------------------------------------------------------------

/// Marker name of the rendered section: it runs from a "<!-- BEGIN
/// PERF HISTORY (generated: ...) -->" line through "<!-- END PERF
/// HISTORY -->" (util/doc_sections.hpp).
inline constexpr const char* kTrendSection = "PERF HISTORY";

/// Renders the marker-delimited markdown section: per-group trend
/// table, drift verdicts and (with >= 2 revisions) an ASCII chart of
/// normalized per-suite medians over revisions.  Returns true iff any
/// group drifted.  Byte-deterministic in (store, options).
bool render_trend_section(std::ostream& os, const History& h,
                          const TrendOptions& options);

}  // namespace balbench::history
