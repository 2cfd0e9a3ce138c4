// balbench-history: the perf-history front end (DESIGN.md Sec. 13, 16).
//
// Subcommands:
//
//   ingest --history FILE --record FILE [--host NAME] [--replace]
//       Appends one balbench-perf-record/1 snapshot (written by
//       `balbench-perf --record`) to the history store, keyed by (git
//       revision, config hash, host).  A missing store file is
//       created; re-ingesting an existing key is an error unless
//       --replace deliberately overwrites the entry in place.  On a
//       sharded store only the host's shard plus the index are
//       rewritten -- every other host's bytes stay untouched.
//
//   list --history FILE [--jobs N]
//       Deterministic (rev x host x suite) inventory of the store:
//       cell counts, sample counts and compaction state per entry.
//
//   compact --history FILE --keep-revisions N
//       Downsamples entries older than the newest N revisions of
//       their (config hash, host) group: raw samples are dropped,
//       the exact robust summaries they produced are kept, so every
//       drift verdict and every rendered byte survives compaction.
//       Rewrites single-file stores as balbench-perf-history/2 (the
//       v1 -> v2 upgrade); sharded stores stream shard by shard.
//
//   migrate --history FILE --output INDEX [--jobs N]
//       One-shot rewrite of a store (v1 or v2, single-file or
//       sharded) as a sharded store: per-host shard files under
//       "<INDEX>.shards/", index at INDEX.
//
//   trend --history FILE [--window N] [--threshold F] [--jobs N]
//       Prints the trend section (per-group tables + ASCII chart) to
//       stdout.  Exit 3 when any cell regressed under the
//       sliding-window CI-overlap rule.
//
//   matrix --history FILE [--rev R] [--threshold F] [--jobs N]
//          [--json FILE]
//       The fleet view: a (host x cell) matrix of one revision with
//       normalized medians, cross-host dispersion (MAD) and the
//       code-vs-host drift attribution.  Markdown to stdout by
//       default, "balbench-history-matrix/1" JSON with --json.
//
//   render --history FILE --doc FILE [--window N] [--threshold F]
//          [--jobs N]
//       Splices freshly rendered PERF HISTORY *and* FLEET VIEW
//       sections into the document (appended when absent), without
//       re-running the experiments sweep.  Exit 3 on drift.
//
//   check-doc --history FILE --doc FILE [--window N] [--threshold F]
//             [--jobs N]
//       Byte-compares the document's PERF HISTORY and FLEET VIEW
//       sections against a fresh render; exit 1 on mismatch.  This is
//       the `history_doc_drift` ctest -- the cheap mirror of
//       doc_drift_guard (seconds, not minutes, because only the
//       sections are recomputed).
//
//   merge-wall-profiles [--output FILE] PROFILE...
//       Sums the category rollups and scheduler telemetry of N
//       balbench-wall-profile/1 files into one merged record (schema
//       kept, plus "merged_runs"); merged records are themselves
//       mergeable.
//
// Every subcommand accepts both store layouts (single-file and
// sharded) through HistoryStore::open, and every output is
// byte-identical for any --jobs N and any shard order.
//
// Exit codes: 0 = clean; 3 = completed but drift detected (trend /
// render); 1 = fatal error or check-doc mismatch; 2 = bad usage.
// All file outputs go through util::atomic_write ("-" = stdout).
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/history/history.hpp"
#include "core/history/matrix.hpp"
#include "core/history/store.hpp"
#include "core/history/wall_merge.hpp"
#include "obs/json.hpp"
#include "util/atomic_write.hpp"
#include "util/options.hpp"

namespace {

using namespace balbench;

bool spill(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return static_cast<bool>(std::cout);
  }
  try {
    util::atomic_write(path, text);
  } catch (const std::exception& e) {
    std::cerr << "balbench-history: " << e.what() << '\n';
    return false;
  }
  return true;
}

/// The machine label entries default to when --host is not given.  CI
/// pins --host explicitly so the committed store stays host-neutral.
std::string default_host() {
  char buf[256];
  if (gethostname(buf, sizeof buf) == 0) {
    buf[sizeof buf - 1] = '\0';
    if (buf[0] != '\0') return buf;
  }
  return "unknown-host";
}

/// Opens the store and loads all entries in canonical order.
history::History load_history(const std::string& path, bool allow_missing,
                              int jobs = 1) {
  const history::HistoryStore store = history::HistoryStore::open(path);
  if (store.kind() == history::HistoryStore::Kind::Missing && !allow_missing) {
    throw std::runtime_error("cannot read " + path);
  }
  return store.load_all(jobs);
}

const char* store_kind_name(history::HistoryStore::Kind kind) {
  switch (kind) {
    case history::HistoryStore::Kind::Missing: return "missing";
    case history::HistoryStore::Kind::SingleFile: return "single-file";
    case history::HistoryStore::Kind::Sharded: return "sharded";
  }
  return "?";
}

int cmd_ingest(int argc, const char* const* argv) {
  std::string history_path;
  std::string record_path;
  std::string host;
  bool replace = false;
  util::Options options(
      "balbench-history ingest: append one balbench-perf-record/1 "
      "snapshot to the history store, keyed by (git revision, config "
      "hash, host).  Duplicate keys are rejected unless --replace "
      "deliberately overwrites the entry in place.  Sharded stores "
      "rewrite only the host's shard plus the index");
  options.add_string("history", &history_path,
                     "the history store (created when missing)");
  options.add_string("record", &record_path,
                     "the balbench-perf-record/1 snapshot to ingest");
  options.add_string("host", &host,
                     "machine label for the entry (default: gethostname)");
  options.add_flag("replace", &replace,
                   "overwrite an existing (rev, config, host) entry in "
                   "place instead of rejecting the duplicate key");
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty() || record_path.empty()) {
    std::cerr << "balbench-history ingest: --history and --record are "
                 "required\n";
    return 2;
  }
  if (host.empty()) host = default_host();

  history::HistoryStore store = history::HistoryStore::open(history_path);
  const obs::JsonValue record = obs::parse_json(util::read_file(record_path));
  const auto result = store.ingest(record, std::move(host), replace);
  std::cerr << "balbench-history: " << (result.replaced ? "replaced" : "ingested")
            << " rev " << result.git_rev << " (config " << result.config_hash
            << ", host " << result.host << ", " << result.cells
            << " cells); " << store_kind_name(store.kind())
            << " store now holds " << result.store_entries << " snapshot(s)";
  if (store.kind() == history::HistoryStore::Kind::Sharded) {
    std::cerr << " across " << store.index().shards.size() << " shard(s)";
  }
  std::cerr << '\n';
  return 0;
}

int cmd_list(int argc, const char* const* argv) {
  std::string history_path;
  std::int64_t jobs = 1;
  util::Options options(
      "balbench-history list: deterministic (rev x host x suite) "
      "inventory of the store -- cell counts, sample counts and "
      "compaction state per entry, sorted by (host, config, revision "
      "axis)");
  options.add_string("history", &history_path, "the history store");
  options.add_jobs(&jobs, "shard loading");
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty()) {
    std::cerr << "balbench-history list: --history is required\n";
    return 2;
  }
  const history::History store =
      load_history(history_path, /*allow_missing=*/false,
                   static_cast<int>(jobs));
  history::render_list(std::cout, store);
  return 0;
}

int cmd_compact(int argc, const char* const* argv) {
  std::string history_path;
  std::int64_t keep = 5;
  util::Options options(
      "balbench-history compact: downsample entries older than the "
      "newest --keep-revisions revisions of their (config hash, host) "
      "group -- raw samples dropped, their exact robust summaries "
      "kept, so drift verdicts survive byte for byte.  Single-file "
      "stores are rewritten as balbench-perf-history/2 (the v1 -> v2 "
      "upgrade); sharded stores stream one shard at a time");
  options.add_string("history", &history_path, "the history store");
  options.add_int("keep-revisions", &keep,
                  "per-group revisions whose raw samples are kept");
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty()) {
    std::cerr << "balbench-history compact: --history is required\n";
    return 2;
  }
  if (keep < 1) {
    std::cerr << "balbench-history compact: --keep-revisions must be >= 1\n";
    return 2;
  }
  history::HistoryStore store = history::HistoryStore::open(history_path);
  const std::size_t n = store.compact(static_cast<int>(keep));
  std::cerr << "balbench-history: compacted " << n << " entr"
            << (n == 1 ? "y" : "ies") << " (keeping the newest " << keep
            << " revision(s) per group raw) in the "
            << store_kind_name(store.kind()) << " store " << history_path
            << '\n';
  return 0;
}

int cmd_migrate(int argc, const char* const* argv) {
  std::string history_path;
  std::string output;
  std::int64_t jobs = 1;
  util::Options options(
      "balbench-history migrate: one-shot rewrite of a store (v1 or "
      "v2, single-file or sharded) as a sharded store -- per-host "
      "shard files under '<OUTPUT>.shards/', index at OUTPUT.  After "
      "migration, ingesting one host rewrites only that host's shard");
  options.add_string("history", &history_path, "the store to migrate");
  options.add_string("output", &output, "the index file to write");
  options.add_jobs(&jobs, "shard loading");
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty() || output.empty()) {
    std::cerr << "balbench-history migrate: --history and --output are "
                 "required\n";
    return 2;
  }
  const history::History store =
      load_history(history_path, /*allow_missing=*/false,
                   static_cast<int>(jobs));
  history::HistoryStore::write_sharded(store, output);
  const history::HistoryStore sharded = history::HistoryStore::open(output);
  std::cerr << "balbench-history: migrated " << store.entries.size()
            << " snapshot(s) into " << sharded.index().shards.size()
            << " shard(s) under " << output << '\n';
  return 0;
}

int cmd_trend(int argc, const char* const* argv, bool splice) {
  std::string history_path;
  std::string doc_path;
  std::int64_t window = history::TrendOptions{}.window;
  double threshold = history::TrendOptions{}.threshold;
  std::int64_t jobs = 1;
  util::Options options(
      splice ? "balbench-history render: splice the PERF HISTORY and "
               "FLEET VIEW sections into the document (appended when "
               "absent) without re-running the sweep.  Exit 3 on drift"
             : "balbench-history trend: print the trend section (per-"
               "group tables + ASCII chart) to stdout.  Exit 3 on drift");
  options.add_string("history", &history_path, "the history store to analyze");
  if (splice) {
    options.add_string("doc", &doc_path,
                       "the document (EXPERIMENTS.md) to splice into");
  }
  options.add_int("window", &window,
                  "sliding-window length in revisions for drift detection");
  options.add_double("threshold", &threshold,
                     "regression slack as a fraction of the window's "
                     "pessimistic CI edge");
  options.add_jobs(&jobs, "shard loading and matrix statistics");
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty() || (splice && doc_path.empty())) {
    std::cerr << "balbench-history: --history" << (splice ? " and --doc" : "")
              << (splice ? " are" : " is") << " required\n";
    return 2;
  }

  const history::History store =
      load_history(history_path, /*allow_missing=*/false,
                   static_cast<int>(jobs));
  history::TrendOptions trend_opt;
  trend_opt.window = static_cast<int>(window);
  trend_opt.threshold = threshold;
  std::ostringstream section;
  const bool drifted =
      history::render_trend_section(section, store, trend_opt);

  if (splice) {
    history::MatrixOptions matrix_opt;
    matrix_opt.jobs = static_cast<int>(jobs);
    std::ostringstream fleet;
    history::render_fleet_section(fleet, store, matrix_opt);
    const std::string doc = util::read_file(doc_path);
    std::string next = history::splice_trend_section(doc, section.str());
    next = history::splice_fleet_section(next, fleet.str());
    if (next != doc) {
      if (!spill(doc_path, next)) return 1;
      std::cerr << "balbench-history: updated the PERF HISTORY and FLEET "
                   "VIEW sections of " << doc_path << '\n';
    } else {
      std::cerr << "balbench-history: " << doc_path << " is up to date\n";
    }
  } else {
    std::cout << section.str();
  }
  if (drifted) {
    std::cerr << "balbench-history: regression drift detected (exit 3)\n";
    return 3;
  }
  return 0;
}

int cmd_matrix(int argc, const char* const* argv) {
  std::string history_path;
  std::string rev;
  std::string json_path;
  double threshold = history::MatrixOptions{}.threshold;
  std::int64_t jobs = 1;
  util::Options options(
      "balbench-history matrix: the fleet view -- a (host x cell) "
      "matrix of one revision with per-host normalized medians, "
      "cross-host dispersion (MAD) and the code-vs-host drift "
      "attribution.  Markdown to stdout by default; "
      "balbench-history-matrix/1 JSON with --json.  Byte-identical "
      "for any shard order and any --jobs N");
  options.add_string("history", &history_path, "the history store");
  options.add_string("rev", &rev,
                     "revision to slice (default: the newest revision in "
                     "canonical store order)");
  options.add_string("json", &json_path,
                     "write the balbench-history-matrix/1 record here "
                     "('-' = stdout) instead of markdown");
  options.add_double("threshold", &threshold,
                     "|relative delta| beyond which a host counts as "
                     "moved vs its previous revision");
  options.add_jobs(&jobs, "shard loading and per-row bootstrap statistics");
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty()) {
    std::cerr << "balbench-history matrix: --history is required\n";
    return 2;
  }
  const history::History store =
      load_history(history_path, /*allow_missing=*/false,
                   static_cast<int>(jobs));
  history::MatrixOptions matrix_opt;
  matrix_opt.rev = rev;
  matrix_opt.threshold = threshold;
  matrix_opt.jobs = static_cast<int>(jobs);
  if (!json_path.empty()) {
    const history::MatrixView view = history::analyze_matrix(store, matrix_opt);
    std::ostringstream out;
    history::write_matrix_json(out, view);
    if (!spill(json_path, out.str())) return 1;
    return 0;
  }
  history::render_fleet_section(std::cout, store, matrix_opt);
  return 0;
}

int cmd_check_doc(int argc, const char* const* argv) {
  std::string history_path;
  std::string doc_path;
  std::int64_t window = history::TrendOptions{}.window;
  double threshold = history::TrendOptions{}.threshold;
  std::int64_t jobs = 1;
  util::Options options(
      "balbench-history check-doc: byte-compare the document's PERF "
      "HISTORY and FLEET VIEW sections against a fresh render of the "
      "store.  Exit 1 on mismatch");
  options.add_string("history", &history_path, "the history store");
  options.add_string("doc", &doc_path, "the document (EXPERIMENTS.md)");
  options.add_int("window", &window,
                  "sliding-window length in revisions for drift detection");
  options.add_double("threshold", &threshold,
                     "regression slack as a fraction of the window's "
                     "pessimistic CI edge");
  options.add_jobs(&jobs, "shard loading and matrix statistics");
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty() || doc_path.empty()) {
    std::cerr << "balbench-history check-doc: --history and --doc are "
                 "required\n";
    return 2;
  }

  const history::History store =
      load_history(history_path, /*allow_missing=*/false,
                   static_cast<int>(jobs));
  history::TrendOptions trend_opt;
  trend_opt.window = static_cast<int>(window);
  trend_opt.threshold = threshold;
  std::ostringstream section;
  history::render_trend_section(section, store, trend_opt);
  history::MatrixOptions matrix_opt;
  matrix_opt.jobs = static_cast<int>(jobs);
  std::ostringstream fleet;
  history::render_fleet_section(fleet, store, matrix_opt);

  const std::string doc = util::read_file(doc_path);
  const char* stale = nullptr;
  const std::string committed_trend = history::extract_trend_section(doc);
  const std::string committed_fleet = history::extract_fleet_section(doc);
  if (committed_trend != section.str()) stale = "PERF HISTORY";
  else if (committed_fleet != fleet.str()) stale = "FLEET VIEW";
  if (stale == nullptr) {
    std::cerr << "balbench-history: the PERF HISTORY and FLEET VIEW "
                 "sections of " << doc_path << " are up to date\n";
    return 0;
  }
  std::cerr << "balbench-history: the " << stale << " section of " << doc_path
            << " is missing or drifted; regenerate with\n"
               "  balbench-history render --history "
            << history_path << " --doc " << doc_path << '\n';
  return 1;
}

int cmd_merge_wall_profiles(int argc, const char* const* argv) {
  std::string output = "-";
  std::vector<std::string> inputs;
  util::Options options(
      "balbench-history merge-wall-profiles: sum the category rollups "
      "and scheduler telemetry of N balbench-wall-profile/1 files into "
      "one merged record (merged records are themselves mergeable)");
  options.add_string("output", &output, "write the merged record here");
  options.add_positionals(&inputs, "PROFILE",
                          "balbench-wall-profile/1 files to merge");
  if (!options.parse(argc, argv)) return 0;
  if (inputs.empty()) {
    std::cerr << "balbench-history merge-wall-profiles: need at least one "
                 "profile\n";
    return 2;
  }

  history::WallProfileMerge merged;
  bool first = true;
  for (const auto& path : inputs) {
    const history::WallProfileMerge one =
        history::parse_wall_profile(obs::parse_json(util::read_file(path)));
    if (first) {
      merged = one;
      first = false;
    } else {
      history::merge_wall_profiles(merged, one);
    }
  }
  std::ostringstream out;
  history::write_merged_wall_profile(out, merged);
  if (!spill(output, out.str())) return 1;
  std::cerr << "balbench-history: merged " << inputs.size() << " file(s), "
            << merged.runs << " run(s) total\n";
  return 0;
}

void usage(std::ostream& os) {
  os << "balbench-history: perf-history store, trend and fleet analysis "
        "(DESIGN.md Sec. 13, 16)\n\n"
        "subcommands:\n"
        "  ingest               append a balbench-perf-record/1 snapshot "
        "to the store\n"
        "  list                 (rev x host x suite) inventory with "
        "compaction state\n"
        "  compact              drop raw samples of old revisions, keep "
        "their summaries\n"
        "  migrate              rewrite a store as per-host shards under "
        "an index\n"
        "  trend                print the trend section; exit 3 on "
        "regression drift\n"
        "  matrix               (host x cell) fleet matrix of one "
        "revision\n"
        "  render               splice the PERF HISTORY + FLEET VIEW "
        "sections into EXPERIMENTS.md\n"
        "  check-doc            byte-compare the document's sections "
        "against a fresh render\n"
        "  merge-wall-profiles  sum N balbench-wall-profile/1 files into "
        "one record\n\n"
        "run `balbench-history <subcommand> --help` for the options.\n"
        "exit codes: 0 = clean, 3 = drift, 1 = fatal / stale doc, "
        "2 = bad usage\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage(std::cout);
    return 0;
  }
  // Each subcommand re-parses argv past its own name, so `--help`
  // after the subcommand prints that subcommand's options.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (cmd == "ingest") return cmd_ingest(sub_argc, sub_argv);
    if (cmd == "list") return cmd_list(sub_argc, sub_argv);
    if (cmd == "compact") return cmd_compact(sub_argc, sub_argv);
    if (cmd == "migrate") return cmd_migrate(sub_argc, sub_argv);
    if (cmd == "trend") return cmd_trend(sub_argc, sub_argv, /*splice=*/false);
    if (cmd == "matrix") return cmd_matrix(sub_argc, sub_argv);
    if (cmd == "render") return cmd_trend(sub_argc, sub_argv, /*splice=*/true);
    if (cmd == "check-doc") return cmd_check_doc(sub_argc, sub_argv);
    if (cmd == "merge-wall-profiles") {
      return cmd_merge_wall_profiles(sub_argc, sub_argv);
    }
    std::cerr << "balbench-history: unknown subcommand '" << cmd << "'\n\n";
    usage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "balbench-history: " << e.what() << '\n';
    return 1;
  }
}
