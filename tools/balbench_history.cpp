// balbench-history: the perf-history front end (DESIGN.md Sec. 13).
//
// Subcommands:
//
//   ingest --history FILE --record FILE [--replace]
//       Appends every entry of the balbench-perf-history/2 document
//       FILE (a `balbench-perf --out` run is one entry) to the history
//       store, in order, keyed by (git revision, config hash, host).
//       An entry keeps the host that measured it.  A missing store
//       file is created; re-ingesting an existing key is an error
//       unless --replace deliberately overwrites the entry in place.
//
//   list --history FILE
//       Deterministic (rev x host x suite) inventory of the store:
//       cell and sample counts per entry.
//
//   trend --history FILE
//       Prints the trend section (per-group tables + ASCII chart) to
//       stdout.  Exit 3 when any cell regressed under the
//       sliding-window CI-overlap rule (history::TrendOptions' defaults,
//       so the section is a pure function of the store).
//
//   render --history FILE --doc FILE
//       Splices a freshly rendered PERF HISTORY section into the
//       document (appended when absent) with util::splice_sections,
//       without re-running the experiments sweep.  This is the only
//       writer of that section.  Exit 3 on drift.
//
//   check-doc --history FILE --doc FILE
//       Compares the document's PERF HISTORY section against a fresh
//       render (util::check_sections); exit 1 naming the first
//       differing line.  This is the
//       `history_doc_drift` ctest -- the cheap mirror of
//       doc_drift_guard (seconds, not minutes, because only the
//       section is recomputed).
//
// The store is one balbench-perf-history/2 file (history::load_history).
//
// Exit codes: 0 = clean; 3 = completed but drift detected (trend /
// render); 1 = fatal error or check-doc mismatch; 2 = bad usage.
// All file outputs go through util::write_output ("-" = stdout).
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/history/history.hpp"
#include "util/atomic_write.hpp"
#include "util/doc_sections.hpp"
#include "util/options.hpp"

namespace {

using namespace balbench;

int cmd_ingest(int argc, const char* const* argv) {
  std::string history_path;
  std::string record_path;
  bool replace = false;
  util::Options options(
      "balbench-history ingest: append every entry of a "
      "balbench-perf-history/2 document (a balbench-perf --out run) to "
      "the history store, in order, keyed by (git revision, config hash, "
      "host).  Duplicate keys are rejected unless --replace deliberately "
      "overwrites the entry in place");
  options.add_string("history", &history_path,
                     "the history store (created when missing)");
  options.add_string("record", &record_path,
                     "the balbench-perf-history/2 document to ingest");
  options.add_flag("replace", &replace,
                   "overwrite an existing (rev, config, host) entry in "
                   "place instead of rejecting the duplicate key");
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty() || record_path.empty()) {
    std::cerr << "balbench-history ingest: --history and --record are "
                 "required\n";
    return 2;
  }

  // All or nothing: the store is written, and the entries reported,
  // only once every entry of FILE is in.
  history::History store = history::load_history(history_path);
  history::History runs = history::load_existing_history(record_path);
  std::ostringstream report;
  for (auto& run : runs.entries) {
    const std::size_t before = store.entries.size();
    const history::HistoryEntry& entry =
        history::ingest(store, std::move(run), replace);
    report << "balbench-history: "
           << (store.entries.size() == before ? "replaced" : "ingested")
           << " rev " << entry.git_rev << " (config " << entry.config_hash
           << ", host " << entry.host << ", " << entry.cells.size()
           << " cells); store now holds " << store.entries.size()
           << " snapshot(s)\n";
  }
  history::save_history(history_path, store);
  std::cerr << report.str();
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
  history::render_list(std::cout,
                       history::load_existing_history(history_path));
  return 0;
}

int cmd_trend(int argc, const char* const* argv, bool splice) {
  std::string history_path;
  std::string doc_path;
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
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty() || (splice && doc_path.empty())) {
    std::cerr << "balbench-history: --history" << (splice ? " and --doc" : "")
              << (splice ? " are" : " is") << " required\n";
    return 2;
  }

  std::ostringstream section;
  const bool drifted = history::render_trend_section(
      section, history::load_existing_history(history_path),
      history::TrendOptions{});

  if (splice) {
    const std::string doc = util::read_file(doc_path);
    const std::string next = util::splice_sections(
        doc, {{history::kTrendSection, section.str()}});
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
  util::Options options(
      "balbench-history check-doc: byte-compare the document's PERF "
      "HISTORY section against a fresh render of the store.  Exit 1 on "
      "mismatch");
  options.add_string("history", &history_path, "the history store");
  options.add_string("doc", &doc_path, "the document (EXPERIMENTS.md)");
  if (!options.parse(argc, argv)) return 0;
  if (history_path.empty() || doc_path.empty()) {
    std::cerr << "balbench-history check-doc: --history and --doc are "
                 "required\n";
    return 2;
  }

  std::ostringstream section;
  history::render_trend_section(
      section, history::load_existing_history(history_path),
      history::TrendOptions{});

  const std::string problem = util::check_sections(
      util::read_file(doc_path), {{history::kTrendSection, section.str()}});
  if (problem.empty()) {
    std::cerr << "balbench-history: the PERF HISTORY section of " << doc_path
              << " is up to date\n";
    return 0;
  }
  std::cerr << "balbench-history: " << doc_path << ": " << problem
            << "\nbalbench-history: regenerate with\n"
               "  balbench-history render --history "
            << history_path << " --doc " << doc_path << '\n';
  return 1;
}

void usage(std::ostream& os) {
  os << "balbench-history: perf-history store and trend analysis "
        "(DESIGN.md Sec. 13)\n\n"
        "subcommands:\n"
        "  ingest               append balbench-perf runs to the store\n"
        "  list                 (rev x host x suite) inventory of the "
        "store\n"
        "  trend                print the trend section; exit 3 on "
        "regression drift\n"
        "  render               splice the PERF HISTORY section into "
        "EXPERIMENTS.md\n"
        "  check-doc            byte-compare the document's section "
        "against a fresh render\n\n"
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
