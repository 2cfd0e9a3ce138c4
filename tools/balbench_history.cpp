// balbench-history: the perf-history front end (DESIGN.md Sec. 13).
//
// Subcommands:
//
//   ingest --history FILE --record FILE [--host NAME] [--replace]
//       Appends one balbench-perf-record/1 snapshot (written by
//       `balbench-perf --record`) to the history store, keyed by (git
//       revision, config hash, host).  A missing store file is
//       created; re-ingesting an existing key is an error unless
//       --replace deliberately overwrites the entry in place.
//
//   list --history FILE
//       Deterministic (rev x host x suite) inventory of the store:
//       cell and sample counts per entry.
//
//   trend --history FILE [--window N] [--threshold F]
//       Prints the trend section (per-group tables + ASCII chart) to
//       stdout.  Exit 3 when any cell regressed under the
//       sliding-window CI-overlap rule.
//
//   render --history FILE --doc FILE [--window N] [--threshold F]
//       Splices a freshly rendered PERF HISTORY section into the
//       document (appended when absent), without re-running the
//       experiments sweep.  Exit 3 on drift.
//
//   check-doc --history FILE --doc FILE [--window N] [--threshold F]
//       Byte-compares the document's PERF HISTORY section against a
//       fresh render; exit 1 on mismatch.  This is the
//       `history_doc_drift` ctest -- the cheap mirror of
//       doc_drift_guard (seconds, not minutes, because only the
//       section is recomputed).
//
//   merge-wall-profiles [--output FILE] PROFILE...
//       Sums the category rollups and scheduler telemetry of N
//       balbench-wall-profile/1 files into one merged record (schema
//       kept, plus "merged_runs"); merged records are themselves
//       mergeable.
//
// The store is one balbench-perf-history/2 file (history::load_history).
//
// Exit codes: 0 = clean; 3 = completed but drift detected (trend /
// render); 1 = fatal error or check-doc mismatch; 2 = bad usage.
// All file outputs go through util::write_output ("-" = stdout).
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/history/history.hpp"
#include "core/history/wall_merge.hpp"
#include "obs/json.hpp"
#include "util/atomic_write.hpp"
#include "util/options.hpp"

namespace {

using namespace balbench;

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

/// Loads an existing store; unlike ingest, the readers refuse a
/// missing file rather than analyze an empty store.
history::History load_existing(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    throw std::runtime_error("cannot read " + path);
  }
  return history::load_history(path);
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
      "deliberately overwrites the entry in place");
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

  history::History store = history::load_history(history_path);
  const obs::JsonValue record = obs::parse_json(util::read_file(record_path));
  const std::size_t before = store.entries.size();
  const history::HistoryEntry& entry =
      history::ingest_record(store, record, std::move(host), replace);
  history::save_history(history_path, store);
  std::cerr << "balbench-history: "
            << (store.entries.size() == before ? "replaced" : "ingested")
            << " rev " << entry.git_rev << " (config " << entry.config_hash
            << ", host " << entry.host << ", " << entry.cells.size()
            << " cells); store now holds " << store.entries.size()
            << " snapshot(s)\n";
  return 0;
}

int cmd_list(int argc, const char* const* argv) {
  std::string history_path;
  util::Options options(
      "balbench-history list: deterministic (rev x host x suite) "
      "inventory of the store -- cell and sample counts per entry, "
      "sorted by (host, config, revision axis)");
  options.add_string("history", &history_path, "the history store");
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty()) {
    std::cerr << "balbench-history list: --history is required\n";
    return 2;
  }
  history::render_list(std::cout, load_existing(history_path));
  return 0;
}

int cmd_trend(int argc, const char* const* argv, bool splice) {
  std::string history_path;
  std::string doc_path;
  std::int64_t window = history::TrendOptions{}.window;
  double threshold = history::TrendOptions{}.threshold;
  util::Options options(
      splice ? "balbench-history render: splice the PERF HISTORY "
               "section into the document (appended when absent) "
               "without re-running the sweep.  Exit 3 on drift"
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
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty() || (splice && doc_path.empty())) {
    std::cerr << "balbench-history: --history" << (splice ? " and --doc" : "")
              << (splice ? " are" : " is") << " required\n";
    return 2;
  }

  history::TrendOptions trend_opt;
  trend_opt.window = static_cast<int>(window);
  trend_opt.threshold = threshold;
  std::ostringstream section;
  const bool drifted = history::render_trend_section(
      section, load_existing(history_path), trend_opt);

  if (splice) {
    const std::string doc = util::read_file(doc_path);
    const std::string next = history::splice_trend_section(doc, section.str());
    if (next != doc) {
      util::write_output(doc_path, next);
      std::cerr << "balbench-history: updated the PERF HISTORY section of "
                << doc_path << '\n';
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

int cmd_check_doc(int argc, const char* const* argv) {
  std::string history_path;
  std::string doc_path;
  std::int64_t window = history::TrendOptions{}.window;
  double threshold = history::TrendOptions{}.threshold;
  util::Options options(
      "balbench-history check-doc: byte-compare the document's PERF "
      "HISTORY section against a fresh render of the store.  Exit 1 on "
      "mismatch");
  options.add_string("history", &history_path, "the history store");
  options.add_string("doc", &doc_path, "the document (EXPERIMENTS.md)");
  options.add_int("window", &window,
                  "sliding-window length in revisions for drift detection");
  options.add_double("threshold", &threshold,
                     "regression slack as a fraction of the window's "
                     "pessimistic CI edge");
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty() || doc_path.empty()) {
    std::cerr << "balbench-history check-doc: --history and --doc are "
                 "required\n";
    return 2;
  }

  history::TrendOptions trend_opt;
  trend_opt.window = static_cast<int>(window);
  trend_opt.threshold = threshold;
  std::ostringstream section;
  history::render_trend_section(section, load_existing(history_path),
                                trend_opt);

  const std::string doc = util::read_file(doc_path);
  if (history::extract_trend_section(doc) == section.str()) {
    std::cerr << "balbench-history: the PERF HISTORY section of " << doc_path
              << " is up to date\n";
    return 0;
  }
  std::cerr << "balbench-history: the PERF HISTORY section of " << doc_path
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
  util::write_output(output, out.str());
  std::cerr << "balbench-history: merged " << inputs.size() << " file(s), "
            << merged.runs << " run(s) total\n";
  return 0;
}

void usage(std::ostream& os) {
  os << "balbench-history: perf-history store and trend analysis "
        "(DESIGN.md Sec. 13)\n\n"
        "subcommands:\n"
        "  ingest               append a balbench-perf-record/1 snapshot "
        "to the store\n"
        "  list                 (rev x host x suite) inventory of the "
        "store\n"
        "  trend                print the trend section; exit 3 on "
        "regression drift\n"
        "  render               splice the PERF HISTORY section into "
        "EXPERIMENTS.md\n"
        "  check-doc            byte-compare the document's section "
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
    if (cmd == "trend") return cmd_trend(sub_argc, sub_argv, /*splice=*/false);
    if (cmd == "render") return cmd_trend(sub_argc, sub_argv, /*splice=*/true);
    if (cmd == "check-doc") return cmd_check_doc(sub_argc, sub_argv);
    if (cmd == "merge-wall-profiles") {
      return cmd_merge_wall_profiles(sub_argc, sub_argv);
    }
    std::cerr << "balbench-history: unknown subcommand '" << cmd << "'\n\n";
    usage(std::cerr);
    return 2;
  } catch (const std::invalid_argument& e) {
    // util::Options: an unknown option or a malformed value.
    std::cerr << "balbench-history: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "balbench-history: " << e.what() << '\n';
    return 1;
  }
}
