// Reproduces Table 1 and Figures 1, 3, 4 and 5 of the paper as ASCII
// tables and plots, as views of the report sweep's cells.  Each view
// takes its rows from the report spec (report::sweep_spec of the doc
// scope; --quick takes the quick scope): Table 1 every b_eff row (plus the
// Sec. 2.2 "coffee-cup" statistic on stderr), Figure 1 the rows
// report::fig1_points() names, Figures 3/4/5 the b_eff_io rows tagged
// fig3/fig4/fig5, Figure 3 re-run at every T of its own axis.  The
// union of the selected views' rows runs once through
// report::run_cells, so a cell two views share is simulated once; the
// views then print to stdout in that order.
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/report/experiments.hpp"
#include "machines/machines.hpp"
#include "util/ascii_plot.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace balbench;
using report::BeffRun;
using report::ExperimentsData;
using report::IoRun;
using report::Scope;

// ---- Rows -----------------------------------------------------------------

/// The spec's rows of `scope`, with empty results.
ExperimentsData spec_rows(Scope scope) {
  report::ExperimentOptions options;
  options.scope = scope;
  return report::sweep_spec(options);
}

ExperimentsData table1_rows(Scope scope) {
  ExperimentsData d;
  d.beff = spec_rows(scope).beff;
  return d;
}

ExperimentsData fig1_rows(Scope scope) {
  ExperimentsData d = table1_rows(scope);
  std::erase_if(d.beff, [](const BeffRun& b) {
    return std::none_of(report::fig1_points().begin(),
                        report::fig1_points().end(),
                        [&](const report::Fig1Point& p) {
                          return b.key == p.key && b.nprocs == p.nprocs;
                        });
  });
  return d;
}

ExperimentsData figure_rows(Scope scope, const char* figure) {
  ExperimentsData d;
  d.io = spec_rows(scope).io;
  std::erase_if(d.io, [&](const IoRun& r) { return r.figure != figure; });
  return d;
}

/// Figure 3's rows in rendering order: per machine, its spec rows at
/// each T of the axis.
ExperimentsData fig3_rows(Scope scope) {
  const std::vector<double> times = scope == Scope::Quick
                                        ? std::vector<double>{600.0}
                                        : std::vector<double>{600.0, 900.0, 1800.0};
  const std::vector<IoRun> rows = figure_rows(scope, "fig3").io;
  ExperimentsData d;
  for (auto first = rows.begin(); first != rows.end();) {
    const auto last = std::find_if(
        first, rows.end(), [&](const IoRun& r) { return r.key != first->key; });
    for (double T : times) {
      for (auto r = first; r != last; ++r) {
        d.io.push_back(*r);
        d.io.back().scheduled_seconds = T;
      }
    }
    first = last;
  }
  return d;
}

// ---- Views ----------------------------------------------------------------

/// `row` followed by the write, rewrite, read and b_eff_io columns.
std::vector<std::string> io_columns(std::vector<std::string> row,
                                    const beffio::BeffIoResult& r) {
  for (double bw : {r.write().weighted_bandwidth(), r.rewrite().weighted_bandwidth(),
                    r.read().weighted_bandwidth(), r.b_eff_io}) {
    row.push_back(util::format_mbps(bw, 1));
  }
  return row;
}

void render_table1(const ExperimentsData& d, bool protocol) {
  util::Table table({"System", "number\nof pro-\ncessors", "b_eff\nMByte/s",
                     "b_eff\nper proc.\nMByte/s", "Lmax", "ping-\npong\nMByte/s",
                     "b_eff\nat Lmax\nMByte/s", "per proc.\nat Lmax\nMByte/s",
                     "per proc.\nat Lmax\nring pat."});
  bool section_seen[2] = {false, false};  // distributed, shared memory
  for (const auto& b : d.beff) {
    const auto& r = b.r;
    const auto m = machines::machine_by_name(b.key);
    if (!std::exchange(section_seen[m.shared_memory], true)) {
      table.add_section(m.shared_memory ? "Shared memory systems"
                                        : "Distributed memory systems");
    }
    table.add_row({b.first ? m.name : "", util::fmt(b.nprocs),
                   util::format_mbps(r.b_eff),
                   util::format_mbps(r.per_proc()),
                   util::format_bytes(r.lmax),
                   b.first && r.analysis.pingpong_bw > 0
                       ? util::format_mbps(r.analysis.pingpong_bw)
                       : "",
                   util::format_mbps(r.b_eff_at_lmax),
                   util::format_mbps(r.per_proc_at_lmax()),
                   util::format_mbps(r.per_proc_at_lmax_rings())});
    if (b.first && (b.nprocs >= 24)) {
      // Coffee-cup statistic (paper Sec. 2.2): total memory over b_eff.
      std::cerr << "[table1]   total memory communicated in "
                << util::format_seconds(r.seconds_for_total_memory(b.memory_per_proc))
                << " (coffee-cup)\n";
    }
    if (protocol) std::cout << beff::protocol_report(r) << '\n';
  }
  std::cout << "Table 1. Effective Benchmark Results (simulated)\n";
  table.render(std::cout);
}

void render_fig1(const ExperimentsData& d, bool) {
  util::Table table({"System", "procs", "b_eff\nMByte/s", "R_max\nGFlop/s",
                     "balance factor\nbytes/flop"});
  util::AsciiBarChart chart("Figure 1: balance factor (b_eff / R_max)");
  for (const auto& b : d.beff) {
    const std::string name = machines::machine_by_name(b.key).name;
    const double balance = report::balance_factor(b);
    table.add_row({name, util::fmt(b.nprocs), util::format_mbps(b.r.b_eff),
                   util::fmt(b.rmax_gflops_per_proc * 1e9 * b.nprocs / 1e9, 1),
                   util::fmt(balance, 3)});
    chart.add_bar(name, balance);
  }
  std::cout << "Figure 1 data: balance factor for a variety of platforms\n";
  table.render(std::cout);
  std::cout << '\n';
  chart.render(std::cout);
  std::cout << "\nReading: shared-memory vector systems (SX-5, SX-4) are\n"
               "several times better balanced than the MPP and SMP-cluster\n"
               "systems, as in the paper's Figure 1.\n";
}

void render_fig3(const ExperimentsData& d, bool) {
  for (auto first = d.io.begin(); first != d.io.end();) {
    const auto last = std::find_if(
        first, d.io.end(), [&](const IoRun& r) { return r.key != first->key; });
    const auto m = machines::machine_by_name(first->key);
    std::cout << "=== " << m.name << " -- " << m.io->name << " ===\n";
    util::Table table({"T", "procs", "write\nMB/s", "rewrite\nMB/s",
                       "read\nMB/s", "b_eff_io\nMB/s"});
    std::vector<std::string> labels;  // the partitions at the first T
    for (auto r = first;
         r != last && r->scheduled_seconds == first->scheduled_seconds; ++r) {
      labels.push_back(util::fmt(r->nprocs));
    }
    util::AsciiPlot plot(labels, {.width = 60,
                                  .height = 14,
                                  .log_y = false,
                                  .y_label = "MB/s",
                                  .title = "b_eff_io vs processes, " + m.name});
    char marker = 'a';
    for (auto next = first; next != last;) {
      util::Series series;
      series.name = "T=" + util::format_seconds(next->scheduled_seconds);
      series.marker = marker++;
      for (std::size_t p = 0; p < labels.size(); ++p, ++next) {
        table.add_row(io_columns({util::format_seconds(next->scheduled_seconds),
                                  util::fmt(next->nprocs)},
                                 next->r));
        series.values.push_back(next->r.b_eff_io / (1024.0 * 1024.0));
      }
      plot.add_series(std::move(series));
      table.add_separator();
    }
    table.render(std::cout);
    std::cout << '\n';
    plot.render(std::cout);
    std::cout << '\n';
    first = last;
  }
  std::cout << "Reading: T3E flat beyond ~8-32 procs (global I/O resource);\n"
               "SP tracks the client count until the VSD servers saturate.\n";
}

/// One Figure 4 plot per access method: bandwidth per pattern type over
/// the chunk sizes of the non-scatter rows (all types share them), on a
/// pseudo-log x axis ("+8" = non-wellformed) and a log y axis.
void render_detail(const beffio::BeffIoResult& r, const std::string& name) {
  std::vector<std::int64_t> chunks;
  for (const auto& pr :
       r.access[0].types[static_cast<std::size_t>(beffio::PatternType::SeparateFiles)]
           .patterns) {
    if (!pr.pattern.fill_up) chunks.push_back(pr.pattern.l);
  }
  std::sort(chunks.begin(), chunks.end());
  chunks.erase(std::unique(chunks.begin(), chunks.end()), chunks.end());
  std::vector<std::string> labels;
  for (auto c : chunks) labels.push_back(util::format_chunk_label(c));

  for (const auto& am : r.access) {
    util::AsciiPlot plot(labels, {.width = 64,
                                  .height = 16,
                                  .log_y = true,
                                  .y_label = "MB/s (log)",
                                  .title = name + " -- " +
                                           beffio::access_method_name(am.method)});
    for (int t = 0; t < beffio::kNumPatternTypes; ++t) {
      util::Series s;
      s.marker = static_cast<char>('0' + t);
      s.name = std::string("type") + s.marker;
      for (auto c : chunks) {
        double bw = std::numeric_limits<double>::quiet_NaN();
        for (const auto& pr : am.types[static_cast<std::size_t>(t)].patterns) {
          if (!pr.pattern.fill_up && pr.pattern.l == c && pr.pattern.time_units > 0) {
            bw = pr.bandwidth() / (1024.0 * 1024.0);
          }
        }
        s.values.push_back(bw);
      }
      plot.add_series(std::move(s));
    }
    plot.render(std::cout);
    std::cout << '\n';
  }
}

void render_fig4(const ExperimentsData& d, bool protocol) {
  for (const auto& run : d.io) {
    const auto m = machines::machine_by_name(run.key);
    std::cout << "==== " << m.name << " (" << run.nprocs << " procs, "
              << m.io->name << ") ====\n\n";
    render_detail(run.r, m.short_name);
    if (protocol) std::cout << beffio::beffio_report(run.r) << '\n';
  }
}

void render_fig5(const ExperimentsData& d, bool) {
  util::Table table({"System", "procs", "write\nMB/s", "rewrite\nMB/s",
                     "read\nMB/s", "b_eff_io\nMB/s"});
  for (std::size_t i = 0; i < d.io.size(); ++i) {
    const auto& cell = d.io[i];
    const bool first = i == 0 || d.io[i - 1].key != cell.key;
    table.add_row(io_columns({first ? machines::machine_by_name(cell.key).name : "",
                              util::fmt(cell.nprocs)},
                             cell.r));
    if (i + 1 == d.io.size() || d.io[i + 1].key != cell.key) table.add_separator();
  }
  util::AsciiBarChart chart("Figure 5: b_eff_io (best partition per system), MB/s");
  for (const IoRun* best : report::fig5_best_rows(d)) {
    chart.add_bar(machines::machine_by_name(best->key).name,
                  best->r.b_eff_io / (1024.0 * 1024.0),
                  std::to_string(best->nprocs) + " procs");
  }
  std::cout << "Figure 5 data: b_eff_io for different numbers of processes\n"
            << "(b_eff_io of a system = maximum over partitions, T = "
            << d.io.front().scheduled_seconds / 60.0 << " min)\n";
  table.render(std::cout);
  std::cout << '\n';
  chart.render(std::cout);
}

struct View {
  const char* name;
  ExperimentsData (*rows)(Scope);
  void (*render)(const ExperimentsData&, bool protocol);
};

constexpr View kViews[] = {
    {"table1", table1_rows, render_table1},
    {"fig1", fig1_rows, render_fig1},
    {"fig3", fig3_rows, render_fig3},
    {"fig4", [](Scope s) { return figure_rows(s, "fig4"); }, render_fig4},
    {"fig5", [](Scope s) { return figure_rows(s, "fig5"); }, render_fig5}};

// What makes two rows one simulation (labels and figure tags do not).
auto cell(const BeffRun& b) { return std::tie(b.key, b.nprocs, b.first); }
auto cell(const IoRun& r) {
  return std::tie(r.key, r.nprocs, r.scheduled_seconds, r.mpart_cap);
}

template <class Run>
const Run* find_cell(const std::vector<Run>& runs, const Run& r) {
  auto it = std::find_if(runs.begin(), runs.end(),
                         [&](const Run& t) { return cell(t) == cell(r); });
  return it == runs.end() ? nullptr : &*it;
}

}  // namespace

int main(int argc, char** argv) {
  std::string view = "all";
  bool quick = false;
  bool protocol = false;
  std::int64_t jobs = 1;
  util::Options options(
      "paper_views: reproduce Table 1 and Figures 1, 3, 4 and 5 of the paper "
      "(simulated), as views of the report sweep's cells");
  options.add_string("view", &view,
                     "table1 | fig1 | fig3 | fig4 | fig5 | all (in that order)");
  options.add_flag("quick", &quick,
                   "the quick report scope's cells (Figure 3 at one T)");
  options.add_flag("protocol", &protocol,
                   "also print the full b_eff protocol per Table 1 run and "
                   "the full b_eff_io protocol per Figure 4 run");
  options.add_jobs(&jobs, "the selected views' cells");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  std::vector<std::pair<const View*, ExperimentsData>> views;
  ExperimentsData cells;  // the union of the views' rows
  for (const View& v : kViews) {
    if (view != "all" && view != v.name) continue;
    const auto& rows =
        views.emplace_back(&v, v.rows(quick ? Scope::Quick : Scope::Doc)).second;
    for (const auto& b : rows.beff) {
      if (find_cell(cells.beff, b) == nullptr) cells.beff.push_back(b);
    }
    for (const auto& r : rows.io) {
      if (find_cell(cells.io, r) == nullptr) cells.io.push_back(r);
    }
  }
  if (views.empty()) {
    std::cerr << "paper_views: unknown --view '" << view
              << "' (valid: table1, fig1, fig3, fig4, fig5, all)\n";
    return 2;
  }
  report::ExperimentOptions run;
  run.jobs = static_cast<int>(jobs);
  run.verbose = true;
  report::run_cells(cells, run);

  for (auto& [v, rows] : views) {
    // b_eff rows are whole copies (run_cells also fills in the machine's
    // memory and R_max); io rows keep their own figure tag.
    for (auto& b : rows.beff) b = *find_cell(cells.beff, b);
    for (auto& r : rows.io) r.r = find_cell(cells.io, r)->r;
    v->render(rows, protocol);
  }
  return 0;
}
