// Reproduces Figure 4 of the paper: detailed b_eff_io insight.
//
// For each of the four systems (IBM SP, Cray T3E, Hitachi SR 8000,
// NEC SX-5) and each access method (write / rewrite / read), plots the
// achieved bandwidth per pattern type as a function of the chunk size
// on a pseudo-logarithmic axis (the "+8" points are the non-wellformed
// companions of the power-of-two sizes), log-scale y.
//
// Expected shapes (paper Sec. 5.3):
//  * scatter type 0 is the best at small chunk sizes on every platform
//    (two-phase I/O turns 1 kB disk chunks into 1 MB memory transfers)
//  * wellformed vs non-wellformed differs sharply, especially on T3E
//  * on the IBM SP prototype, segmented collective (type 4) is >10x
//    worse than segmented non-collective (type 3)
//
// A view of the report sweep: the "fig4" cells of report::io_specs
// (--quick takes the quick scope), run through report::run_cells.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "core/report/experiments.hpp"
#include "machines/machines.hpp"
#include "util/ascii_plot.hpp"
#include "util/options.hpp"
#include "util/units.hpp"

namespace {

using namespace balbench;

void render_detail(const beffio::BeffIoResult& r, const std::string& name) {
  // Chunk-size axis: union of the wellformed/non-wellformed l values
  // of the non-scatter rows (all types share them).
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
    const char markers[5] = {'0', '1', '2', '3', '4'};
    for (int t = 0; t < beffio::kNumPatternTypes; ++t) {
      util::Series s;
      s.name = std::string("type") + markers[t];
      s.marker = markers[t];
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

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool print_report = false;
  std::int64_t jobs = 1;
  util::Options options(
      "fig4_beffio_detail: per-pattern b_eff_io bandwidths (Fig. 4)");
  options.add_flag("quick", &quick, "the quick report scope's Figure 4 cells");
  options.add_flag("report", &print_report, "print the full b_eff_io protocol");
  options.add_jobs(&jobs, "the per-machine sweep");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  report::ExperimentsData data;
  data.io = report::io_specs(quick ? report::Scope::Quick : report::Scope::Doc);
  std::erase_if(data.io, [](const report::IoRun& r) { return r.figure != "fig4"; });
  report::ExperimentOptions run;
  run.jobs = static_cast<int>(jobs);
  run.verbose = true;
  report::run_cells(data, run);

  for (const auto& run : data.io) {
    const auto m = machines::machine_by_name(run.key);
    std::cout << "==== " << m.name << " (" << run.nprocs << " procs, "
              << m.io->name << ") ====\n\n";
    render_detail(run.r, m.short_name);
    if (print_report) std::cout << beffio::beffio_report(run.r) << '\n';
  }
  return 0;
}
