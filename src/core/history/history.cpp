#include "core/history/history.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/ascii_plot.hpp"
#include "util/atomic_write.hpp"

namespace balbench::history {

namespace {

constexpr const char* kSchema = "balbench-perf-history/2";
constexpr const char* kRecordSchema = "balbench-perf-record/1";

/// Deterministic human time formatting for the markdown tables: three
/// fixed ranges so regenerated sections never flip units on noise.
std::string fmt_seconds(double s) {
  char buf[48];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.1f µs", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof buf, "%.3f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f s", s);
  }
  return buf;
}

std::string fmt_percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f %%", fraction * 100.0);
  return buf;
}

/// Reads `key` of outside input (a store entry or a perf record) as an
/// integer in [min, INT_MAX] -- the bounds balbench-perf enforces on
/// --repeat/--warmup -- instead of casting an arbitrary double.
int sample_count(const obs::JsonValue& v, const char* key, int min,
                 const char* what, const std::string& rev) {
  const double x = v.at(key).as_number();
  if (!(x >= min && x <= std::numeric_limits<int>::max()) ||
      x != std::floor(x)) {
    char got[48];
    std::snprintf(got, sizeof got, "%g", x);
    throw std::runtime_error(std::string(what) + ": rev " + rev + " has " +
                             key + " " + got + ", want an integer >= " +
                             std::to_string(min));
  }
  return static_cast<int>(x);
}

}  // namespace

// ---------------------------------------------------------------------------
// Store I/O
// ---------------------------------------------------------------------------

History parse_history(std::string_view text) {
  const obs::JsonValue doc = obs::parse_json(text);
  const std::string& schema = doc.at("schema").as_string();
  if (schema != kSchema) {
    throw std::runtime_error("history store schema is '" + schema +
                             "', want '" + kSchema + "'");
  }
  History h;
  for (const auto& e : doc.at("entries").as_array()) {
    HistoryEntry entry;
    entry.git_rev = e.at("git_rev").as_string();
    entry.config_hash = e.at("config_hash").as_string();
    entry.host = e.at("host").as_string();
    entry.suite_spec = e.at("suite").as_string();
    entry.repeat = sample_count(e, "repeat", 1, "history store", entry.git_rev);
    entry.warmup = sample_count(e, "warmup", 0, "history store", entry.git_rev);
    for (const auto& c : e.at("cells").as_array()) {
      HistoryCell cell;
      cell.id = c.at("id").as_string();
      cell.suite = c.at("suite").as_string();
      for (const auto& s : c.at("samples_seconds").as_array()) {
        cell.samples.push_back(s.as_number());
      }
      if (cell.samples.empty()) {
        throw std::runtime_error("history store: cell " + cell.id +
                                 " of rev " + entry.git_rev +
                                 " has no samples");
      }
      entry.cells.push_back(std::move(cell));
    }
    if (entry.cells.empty()) {
      throw std::runtime_error("history store: entry for rev " + entry.git_rev +
                               " has no cells");
    }
    h.entries.push_back(std::move(entry));
  }
  return h;
}

void write_history(std::ostream& os, const History& h) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("schema", kSchema);
  w.key("entries").begin_array();
  for (const auto& e : h.entries) {
    w.begin_object();
    w.field("git_rev", e.git_rev);
    w.field("config_hash", e.config_hash);
    w.field("host", e.host);
    w.field("suite", e.suite_spec);
    w.field("repeat", e.repeat);
    w.field("warmup", e.warmup);
    w.key("cells").begin_array();
    for (const auto& c : e.cells) {
      w.begin_object();
      w.field("id", c.id);
      w.field("suite", c.suite);
      w.key("samples_seconds").begin_array();
      for (double s : c.samples) w.value(s);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

History load_history(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return History{};
  try {
    return parse_history(util::read_file(path));
  } catch (const std::exception& e) {
    // A torn store file (truncated mid-write, disk-level corruption)
    // fails with one error naming path, line and column.
    throw std::runtime_error(path + ": " + e.what());
  }
}

void save_history(const std::string& path, const History& h) {
  std::ostringstream out;
  write_history(out, h);
  util::atomic_write(path, out.str());
}

const HistoryEntry& ingest_record(History& h, const obs::JsonValue& record,
                                  std::string host, bool replace) {
  const std::string& schema = record.at("schema").as_string();
  if (schema != kRecordSchema) {
    throw std::runtime_error("record schema is '" + schema + "', want '" +
                             kRecordSchema + "'");
  }
  HistoryEntry entry;
  entry.git_rev = record.at("provenance").at("git_rev").as_string();
  entry.config_hash = record.at("config_hash").as_string();
  entry.host = std::move(host);
  entry.suite_spec = record.at("suite").as_string();
  entry.repeat = sample_count(record, "repeat", 1, "record", entry.git_rev);
  entry.warmup = sample_count(record, "warmup", 0, "record", entry.git_rev);
  for (const auto& c : record.at("cells").as_array()) {
    HistoryCell cell;
    cell.id = c.at("id").as_string();
    cell.suite = c.at("suite").as_string();
    for (const auto& s : c.at("samples_seconds").as_array()) {
      cell.samples.push_back(s.as_number());
    }
    if (cell.samples.empty()) {
      throw std::runtime_error("record cell " + cell.id + " has no samples");
    }
    entry.cells.push_back(std::move(cell));
  }
  if (entry.cells.empty()) throw std::runtime_error("record has no cells");
  for (auto& e : h.entries) {
    if (e.git_rev == entry.git_rev && e.config_hash == entry.config_hash &&
        e.host == entry.host) {
      if (replace) {
        // Deliberate re-ingest: overwrite in place so the entry keeps
        // its position on the revision axis.
        e = std::move(entry);
        return e;
      }
      throw std::runtime_error(
          "duplicate entry: rev " + entry.git_rev + ", config " +
          entry.config_hash + ", host " + entry.host +
          " is already in the store (re-recording a revision must replace "
          "history consciously: pass --replace, never silently)");
    }
  }
  h.entries.push_back(std::move(entry));
  return h.entries.back();
}

void render_list(std::ostream& os, const History& h) {
  // Sort by (host, config hash, revision-axis position): the axis
  // position is the entry's index, which within one (config, host)
  // group is exactly the ingest order.
  std::vector<std::size_t> order(h.entries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const HistoryEntry& ea = h.entries[a];
    const HistoryEntry& eb = h.entries[b];
    if (ea.host != eb.host) return ea.host < eb.host;
    if (ea.config_hash != eb.config_hash) return ea.config_hash < eb.config_hash;
    return a < b;
  });

  std::size_t total_samples = 0;
  std::vector<std::string> hosts;
  os << "rev       host             config            suite     cells  "
        "samples\n";
  for (std::size_t i : order) {
    const HistoryEntry& e = h.entries[i];
    if (std::find(hosts.begin(), hosts.end(), e.host) == hosts.end()) {
      hosts.push_back(e.host);
    }
    std::size_t samples = 0;
    for (const auto& c : e.cells) samples += c.samples.size();
    total_samples += samples;
    char line[256];
    std::snprintf(line, sizeof line, "%-9s %-16s %-17s %-9s %5zu  %7zu\n",
                  e.git_rev.c_str(), e.host.c_str(), e.config_hash.c_str(),
                  e.suite_spec.c_str(), e.cells.size(), samples);
    os << line;
  }
  char foot[192];
  std::snprintf(foot, sizeof foot,
                "%zu entr%s | %zu host%s | %zu sample%s held\n",
                h.entries.size(), h.entries.size() == 1 ? "y" : "ies",
                hosts.size(), hosts.size() == 1 ? "" : "s", total_samples,
                total_samples == 1 ? "" : "s");
  os << foot;
}

// ---------------------------------------------------------------------------
// Trend analysis
// ---------------------------------------------------------------------------

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Ok: return "ok";
    case Verdict::Regressed: return "REGRESSED";
    case Verdict::Improved: return "improved";
    case Verdict::New: return "new";
  }
  return "?";
}

std::vector<GroupTrend> analyze_trends(const History& h,
                                       const TrendOptions& options) {
  std::vector<GroupTrend> groups;
  // Group entry indices by (config hash, host) in first-appearance
  // order; within a group, ingest order is the revision axis.
  std::vector<std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < h.entries.size(); ++i) {
    const auto& e = h.entries[i];
    std::size_t g = groups.size();
    for (std::size_t k = 0; k < groups.size(); ++k) {
      if (groups[k].config_hash == e.config_hash && groups[k].host == e.host) {
        g = k;
        break;
      }
    }
    if (g == groups.size()) {
      GroupTrend group;
      group.config_hash = e.config_hash;
      group.host = e.host;
      groups.push_back(std::move(group));
      members.emplace_back();
    }
    groups[g].suite_spec = e.suite_spec;  // newest entry wins
    groups[g].revs.push_back(e.git_rev);
    members[g].push_back(i);
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    GroupTrend& group = groups[g];
    const std::vector<std::size_t>& idx = members[g];
    const std::size_t nrevs = idx.size();

    // Cell universe of the group, sorted by (suite, id) for a stable
    // presentation regardless of record-internal ordering.
    std::vector<std::pair<std::string, std::string>> ids;  // (suite, id)
    for (std::size_t r = 0; r < nrevs; ++r) {
      for (const auto& c : h.entries[idx[r]].cells) {
        const auto key = std::make_pair(c.suite, c.id);
        if (std::find(ids.begin(), ids.end(), key) == ids.end()) {
          ids.push_back(key);
        }
      }
    }
    std::sort(ids.begin(), ids.end());

    for (const auto& [suite, id] : ids) {
      CellTrend t;
      t.id = id;
      t.suite = suite;
      t.medians.assign(nrevs, nan);
      // Per-revision robust stats where the cell is present; remember
      // the stats of every revision so the window band can be formed.
      std::vector<util::RobustSummary> stats(nrevs);
      std::vector<bool> present(nrevs, false);
      for (std::size_t r = 0; r < nrevs; ++r) {
        for (const auto& c : h.entries[idx[r]].cells) {
          if (c.id != id) continue;
          stats[r] = util::robust_summary(c.samples);
          present[r] = true;
          t.medians[r] = stats[r].median;
          ++t.revisions;
          break;
        }
      }
      if (!present[nrevs - 1]) {
        // Cell vanished before the newest revision: listed (its
        // history is still charted) but never gated.
        t.verdict = Verdict::New;
        group.cells.push_back(std::move(t));
        continue;
      }
      t.latest = stats[nrevs - 1];
      // Sliding window: the up-to-`window` most recent *preceding*
      // revisions that contain the cell.  The regression gate compares
      // the newest CI against the *fastest* revision in the window
      // (min ci_hi), so a slow multi-commit drift that every
      // adjacent-pair comparison would wave through still trips once
      // the cumulative slowdown exceeds the threshold.
      std::vector<double> window_medians;
      bool have_window = false;
      double lo = 0.0, hi = 0.0;
      for (std::size_t back = nrevs - 1;
           back > 0 && window_medians.size() <
               static_cast<std::size_t>(std::max(options.window, 1));
           --back) {
        const std::size_t r = back - 1;
        if (!present[r]) continue;
        window_medians.push_back(stats[r].median);
        if (!have_window) {
          lo = stats[r].ci_lo;
          hi = stats[r].ci_hi;
          have_window = true;
        } else {
          lo = std::min(lo, stats[r].ci_lo);
          hi = std::min(hi, stats[r].ci_hi);
        }
      }
      if (!have_window) {
        t.verdict = Verdict::New;
      } else {
        t.window_median = util::median(window_medians);
        t.window_ci_lo = lo;
        t.window_ci_hi = hi;
        if (t.latest.ci_lo > hi * (1.0 + options.threshold)) {
          t.verdict = Verdict::Regressed;
          ++group.regressed;
        } else if (t.latest.ci_hi < lo) {
          t.verdict = Verdict::Improved;
          ++group.improved;
        } else {
          t.verdict = Verdict::Ok;
        }
      }
      group.cells.push_back(std::move(t));
    }
  }
  return groups;
}

// ---------------------------------------------------------------------------
// EXPERIMENTS.md trend section
// ---------------------------------------------------------------------------

namespace {

/// Per-suite series for the group chart: logavg of the medians of the
/// cells present in EVERY revision, normalized to the first revision.
/// Restricting to always-present cells keeps the series comparable
/// across the x axis (a cell appearing mid-history must not jump the
/// aggregate).
struct SuiteSeries {
  std::string suite;
  std::vector<double> values;  // one per revision, normalized
};

std::vector<SuiteSeries> suite_series(const GroupTrend& group) {
  std::vector<SuiteSeries> out;
  const std::size_t nrevs = group.revs.size();
  std::vector<std::string> suites;
  for (const auto& c : group.cells) {
    if (std::find(suites.begin(), suites.end(), c.suite) == suites.end()) {
      suites.push_back(c.suite);
    }
  }
  for (const auto& suite : suites) {
    std::vector<const CellTrend*> cells;
    for (const auto& c : group.cells) {
      if (c.suite == suite && c.revisions == nrevs) cells.push_back(&c);
    }
    if (cells.empty()) continue;
    SuiteSeries s;
    s.suite = suite;
    for (std::size_t r = 0; r < nrevs; ++r) {
      std::vector<double> medians;
      medians.reserve(cells.size());
      for (const CellTrend* c : cells) medians.push_back(c->medians[r]);
      s.values.push_back(util::logavg(medians));
    }
    const double base = s.values.front();
    if (base <= 0.0) continue;
    for (double& v : s.values) v /= base;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

bool render_trend_section(std::ostream& os, const History& h,
                          const TrendOptions& options) {
  const auto groups = analyze_trends(h, options);

  os << kTrendBeginPrefix
     << " (generated: balbench-history render --history BENCH_HISTORY.json"
        " --doc EXPERIMENTS.md; do not edit — byte-compared by the"
        " history_doc_drift ctest) -->\n"
        "\n"
        "## Performance history — wall-clock medians over revisions\n"
        "\n";
  char stamp[96];
  std::snprintf(stamp, sizeof stamp,
                "<!-- %zu snapshot%s | window %d | threshold %.0f %% -->\n",
                h.entries.size(), h.entries.size() == 1 ? "" : "s",
                options.window, options.threshold * 100.0);
  os << stamp
     << "\n"
        "The `balbench-perf-history/2` store (`BENCH_HISTORY.json`) "
        "accumulates\n"
        "`balbench-perf-record/1` snapshots keyed by (git revision, config "
        "hash,\n"
        "host); trends are recomputed from the stored raw samples "
        "(median/MAD/\n"
        "bootstrap-95 %-CI via `util::robust_summary`).  Every number below "
        "is\n"
        "HOST wall-clock read from the committed store — the section is a "
        "pure\n"
        "function of the store file, never of the machine rendering it, so "
        "the\n"
        "`history_doc_drift` ctest can byte-compare it.  Drift rule "
        "(DESIGN.md\n"
        "§13): a cell regresses when its optimistic CI edge is slower than "
        "even\n"
        "the fastest sliding-window revision's pessimistic CI edge plus "
        "the\n"
        "threshold — so slow multi-commit drifts trip the gate too; groups "
        "with\n"
        "different config hashes or hosts are never compared.\n";

  bool drifted = false;
  if (groups.empty()) {
    os << "\nThe store is empty — record a snapshot with `balbench-perf` "
          "and\n"
          "ingest it with `balbench-history ingest`.\n";
  }
  for (const auto& group : groups) {
    os << "\n### config " << group.config_hash << " on " << group.host
       << "\n\n";
    const std::size_t nrevs = group.revs.size();
    std::string revlist;
    for (std::size_t r = 0; r < nrevs; ++r) {
      if (r > 0) revlist += " → ";
      revlist += group.revs[r];
    }
    char head[128];
    std::snprintf(head, sizeof head, "%zu tracked revision%s of suite `%s`: ",
                  nrevs, nrevs == 1 ? "" : "s", group.suite_spec.c_str());
    os << head << revlist << ".\n";

    if (nrevs < 2) {
      os << "\nOne snapshot so far — trends need at least two revisions; "
            "ingest the\n"
            "next revision's record with `balbench-history ingest`.  "
            "Current\n"
            "per-suite medians (logavg over cells):\n"
            "\n"
            "| suite | cells | logavg median |\n"
            "|---|---|---|\n";
      std::vector<std::string> suites;
      for (const auto& c : group.cells) {
        if (std::find(suites.begin(), suites.end(), c.suite) == suites.end()) {
          suites.push_back(c.suite);
        }
      }
      for (const auto& suite : suites) {
        std::vector<double> medians;
        for (const auto& c : group.cells) {
          if (c.suite == suite) medians.push_back(c.latest.median);
        }
        os << "| " << suite << " | " << medians.size() << " | "
           << fmt_seconds(util::logavg(medians)) << " |\n";
      }
      continue;
    }

    // Chart: normalized per-suite medians over revisions.  A group
    // whose normalized series are all exactly equal (e.g. identical
    // snapshots re-ingested) has no spread to scale an axis around --
    // AsciiPlot would invent a [v, v+1] range and squash every series
    // onto the bottom row, which reads as a cliff.  Clamp to an
    // explicit flat line instead.
    const auto series = suite_series(group);
    double series_min = std::numeric_limits<double>::max();
    double series_max = -std::numeric_limits<double>::max();
    for (const auto& s : series) {
      for (double v : s.values) {
        series_min = std::min(series_min, v);
        series_max = std::max(series_max, v);
      }
    }
    if (!series.empty() && series_max == series_min) {
      const int flat_width = 56;
      char axis[32];
      std::snprintf(axis, sizeof axis, "%9.4g |", series_min);
      os << "\n```\n"
            "median wall time per revision (1.0 = first tracked "
            "revision)\n";
      for (const auto& s : series) {
        os << axis
           << std::string(static_cast<std::size_t>(flat_width),
                          s.suite.empty() ? '*' : s.suite.front())
           << '\n';
      }
      os << "          +"
         << std::string(static_cast<std::size_t>(flat_width), '-') << '\n';
      char note[160];
      std::snprintf(note, sizeof note,
                    "  (no spread: every per-suite normalized median equals "
                    "%.4g across all %zu revisions -- flat line)\n",
                    series_min, nrevs);
      os << note << "  legend:";
      for (const auto& s : series) {
        os << "  " << (s.suite.empty() ? '*' : s.suite.front()) << '='
           << s.suite;
      }
      os << "   [y: × first revision]\n```\n";
    } else if (!series.empty()) {
      util::AsciiPlot::Options plot_opt;
      plot_opt.width = 56;
      plot_opt.height = 10;
      plot_opt.y_label = "× first revision";
      plot_opt.title =
          "median wall time per revision (1.0 = first tracked revision)";
      plot_opt.y_min_hint = 1.0;
      util::AsciiPlot plot(group.revs, plot_opt);
      for (const auto& s : series) {
        util::Series ps;
        ps.name = s.suite;
        ps.marker = s.suite.empty() ? '*' : s.suite.front();
        ps.values = s.values;
        plot.add_series(std::move(ps));
      }
      os << "\n```\n" << plot.to_string() << "```\n";
    }

    os << "\n| cell | suite | revs | window median | latest | Δ | verdict "
          "|\n"
          "|---|---|---|---|---|---|---|\n";
    for (const auto& c : group.cells) {
      os << "| " << c.id << " | " << c.suite << " | " << c.revisions << " | ";
      if (c.verdict == Verdict::New) {
        os << "— | " << fmt_seconds(c.latest.median) << " | — | "
           << verdict_name(c.verdict) << " |\n";
        continue;
      }
      os << fmt_seconds(c.window_median) << " | "
         << fmt_seconds(c.latest.median) << " | ";
      if (c.window_median > 0.0) {
        os << fmt_percent(c.latest.median / c.window_median - 1.0);
      } else {
        os << "—";
      }
      os << " | " << verdict_name(c.verdict) << " |\n";
    }

    os << "\n";
    if (group.drifted()) {
      char line[128];
      std::snprintf(line, sizeof line,
                    "**DRIFT: %zu cell%s regressed** (balbench-history exits "
                    "3).\n",
                    group.regressed, group.regressed == 1 ? "" : "s");
      os << line;
      drifted = true;
    } else {
      os << "No drift: every gated cell's newest CI overlaps its window "
            "band.\n";
    }
  }
  os << kTrendEndLine << "\n";
  return drifted;
}

namespace {

/// Bounds [first, second) of the PERF HISTORY section in `doc`, the end
/// past the end marker's newline.  `first` is npos without a begin
/// marker, `second` is npos without a matching end marker.
std::pair<std::size_t, std::size_t> trend_section_bounds(
    const std::string& doc) {
  const std::string_view end_line = kTrendEndLine;
  const std::size_t begin = doc.find(kTrendBeginPrefix);
  if (begin == std::string::npos) return {begin, begin};
  std::size_t end = doc.find(end_line, begin);
  if (end == std::string::npos) return {begin, end};
  end += end_line.size();
  if (end < doc.size() && doc[end] == '\n') ++end;
  return {begin, end};
}

}  // namespace

std::string splice_trend_section(const std::string& doc,
                                 const std::string& section) {
  const auto [begin, end] = trend_section_bounds(doc);
  if (begin == std::string::npos) {
    std::string out = doc;
    if (!out.empty() && out.back() != '\n') out += '\n';
    out += '\n';
    out += section;
    return out;
  }
  if (end == std::string::npos) {
    throw std::runtime_error(std::string("document has a begin marker '") +
                             kTrendBeginPrefix +
                             "' but no matching end marker");
  }
  return doc.substr(0, begin) + section + doc.substr(end);
}

std::string extract_trend_section(const std::string& doc) {
  const auto [begin, end] = trend_section_bounds(doc);
  if (end == std::string::npos) return {};
  return doc.substr(begin, end - begin);
}

}  // namespace balbench::history
