// Perf-history store and trend analysis (DESIGN.md Sec. 13).
//
// balbench-perf records (schema "balbench-perf-record/1") are
// point-in-time snapshots: one record tells you how fast this revision
// is, but a slow drift -- 2 % per commit for ten commits -- passes
// every single-baseline gate and still ends 20 % slower.  The history
// store turns those snapshots into a tracked series:
//
//   * an append-only "balbench-perf-history/2" JSON file that ingests
//     perf records keyed by (git revision, config hash, host).  The
//     same key may appear once: re-recording a revision must replace
//     history consciously (--replace), never silently.
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
//     spliced into EXPERIMENTS.md between PERF HISTORY markers.  The
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

#include "obs/json.hpp"
#include "util/stats.hpp"

namespace balbench::history {

/// One cell of one ingested snapshot: the raw samples, from which
/// every statistic is recomputed at analysis time.
struct HistoryCell {
  std::string id;     // "suite.name[...]", unique within the entry
  std::string suite;  // "micro" | "sweep" | "kernels" | "calib"
  std::vector<double> samples;  // host seconds, in run order
};

/// One ingested balbench-perf-record/1 snapshot.
struct HistoryEntry {
  std::string git_rev;
  std::string config_hash;  // perf cell-list hash from the record
  std::string host;         // machine label (--host or gethostname)
  std::string suite_spec;   // the record's --suite spelling
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

/// Writes the store to `path` through util::atomic_write.
void save_history(const std::string& path, const History& h);

/// Validates `record` as a balbench-perf-record/1 document and appends
/// it as a new entry under `host`.  Throws std::runtime_error if the
/// record is malformed or -- unless `replace` is set -- an entry with
/// the same (git_rev, config_hash, host) key already exists.  With
/// `replace`, a deliberate re-ingest overwrites the existing entry *in
/// place*, keeping its position on the revision axis.  Returns the
/// new entry.
const HistoryEntry& ingest_record(History& h, const obs::JsonValue& record,
                                  std::string host, bool replace = false);

/// Deterministic plain-text inventory of the store: one line per
/// entry -- (rev x host x suite) with cell and sample counts -- sorted
/// by (host, config hash, revision-axis position), plus a totals
/// footer.
void render_list(std::ostream& os, const History& h);

// ---------------------------------------------------------------------------
// Trend analysis
// ---------------------------------------------------------------------------

struct TrendOptions {
  /// Sliding-window length: the newest revision is compared against up
  /// to this many preceding revisions of the same (config hash, host)
  /// group, not just the adjacent one.
  int window = 5;
  /// Regression slack, as a fraction of the window's pessimistic CI
  /// edge (same rule and default as the balbench-perf --baseline gate).
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

/// First and last line of the rendered section.  The begin marker is
/// matched by prefix so the stamp text can evolve without breaking
/// old documents.
inline constexpr const char* kTrendBeginPrefix = "<!-- BEGIN PERF HISTORY";
inline constexpr const char* kTrendEndLine = "<!-- END PERF HISTORY -->";

/// Renders the marker-delimited markdown section: per-group trend
/// table, drift verdicts and (with >= 2 revisions) an ASCII chart of
/// normalized per-suite medians over revisions.  Returns true iff any
/// group drifted.  Byte-deterministic in (store, options).
bool render_trend_section(std::ostream& os, const History& h,
                          const TrendOptions& options);

/// Returns `doc` with its PERF HISTORY section replaced by `section`
/// (which must be a full render_trend_section output).  A document
/// without the section gets it appended after one separating blank
/// line.  Throws std::runtime_error on a begin marker without an end
/// marker.
std::string splice_trend_section(const std::string& doc,
                                 const std::string& section);

/// Extracts the PERF HISTORY section (markers included, trailing
/// newline included) or returns "" when the document has none.
std::string extract_trend_section(const std::string& doc);

}  // namespace balbench::history
