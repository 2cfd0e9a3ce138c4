// SKaMPI-style comparison-page workflow (paper Sec. 6): run the same
// benchmark on two machines, export machine-readable summaries, and
// render an aligned ratio table.
//
//   $ ./examples/compare_machines --a t3e --b sr8000 --procs 24
//
// Also writes the full per-measurement CSV protocols next to the
// summaries when --csv-dir is given.
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/report/experiments.hpp"
#include "core/report/export.hpp"
#include "machines/machines.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace balbench;

  std::string a = "t3e";
  std::string b = "sr8000";
  std::int64_t procs = 24;
  std::string csv_dir;
  std::int64_t jobs = 1;
  util::Options options("compare_machines: aligned b_eff comparison of two systems");
  options.add_string("a", &a, "first machine short name");
  options.add_string("b", &b, "second machine short name");
  options.add_int("procs", &procs, "process count (clamped per machine)");
  options.add_string("csv-dir", &csv_dir, "directory for full CSV protocols");
  options.add_jobs(&jobs, "the b_eff cells of both machines");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  const auto ma = machines::machine_by_name(a);
  const auto mb = machines::machine_by_name(b);
  // Two full b_eff rows (analysis cells included), one task list.
  report::ExperimentsData data;
  for (const auto* m : {&ma, &mb}) {
    report::BeffRun& row = data.beff.emplace_back();
    row.key = m->short_name;
    row.nprocs = std::min(static_cast<int>(procs), m->max_procs);
    row.first = true;
  }
  report::ExperimentOptions run;
  run.jobs = static_cast<int>(jobs);
  run.verbose = true;
  report::run_cells(data, run);
  const auto& ra = data.beff[0].r;
  const auto& rb = data.beff[1].r;

  std::ostringstream sa;
  std::ostringstream sb;
  report::write_beff_summary(sa, ma.name, ra);
  report::write_beff_summary(sb, mb.name, rb);

  std::cout << sa.str() << '\n' << sb.str() << '\n';
  std::cout << "comparison (" << a << " vs " << b << "):\n";
  report::compare_summaries(std::cout, a, report::parse_summary(sa.str()), b,
                            report::parse_summary(sb.str()));

  if (!csv_dir.empty()) {
    for (const auto& [name, spec, res] :
         {std::tuple{a, ma, ra}, std::tuple{b, mb, rb}}) {
      const std::string path = csv_dir + "/beff_" + name + ".csv";
      std::ofstream out(path);
      if (!out) {
        std::cerr << "cannot write " << path << '\n';
        return 1;
      }
      report::write_beff_csv(out, spec.name, res);
      std::cout << "wrote " << path << '\n';
    }
  }
  return 0;
}
