// Ablation study of the b_eff averaging rules (paper Secs. 3-5.4).
//
// The paper makes deliberate design choices; this bench quantifies
// what each one contributes by recomputing the headline number from
// the same measurement protocol with one rule changed at a time:
//
//   A. logavg over patterns      vs. arithmetic average
//   B. ring AND random patterns  vs. rings only (the Solchenbach/Plum/
//      Ritzenhoefer bi-section predecessor ignored placement effects)
//   C. average over 21 sizes     vs. L_max only (classical asymptotic)
//   D. max over 3 methods        vs. each single method
//   E. max over repetitions      vs. first repetition (noise floor --
//      identical in our deterministic simulator, reported as a check)
#include <iostream>

#include "core/report/experiments.hpp"
#include "machines/machines.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace balbench;

  std::int64_t procs = 64;
  std::string machine = "t3e";
  std::int64_t jobs = 1;
  util::Options options(
      "ablation_averaging: what each b_eff design rule does "
      "(paper Secs. 3-5.4)");
  options.add_int("procs", &procs, "number of processes");
  options.add_string("machine", &machine, "machine model short name");
  options.add_jobs(&jobs, "the b_eff measurement cells");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  const auto spec = machines::machine_by_name(machine);
  const int np = static_cast<int>(std::min<std::int64_t>(procs, spec.max_procs));

  // One b_eff row without the analysis cells; run_cells spreads its
  // measurement cells over --jobs threads, each with its own simulator.
  report::ExperimentsData data;
  report::BeffRun& b = data.beff.emplace_back();
  b.key = machine;
  b.nprocs = np;
  report::ExperimentOptions run;
  run.jobs = static_cast<int>(jobs);
  run.verbose = true;
  report::run_cells(data, run);
  const beff::BeffResult& r = data.beff.front().r;

  // Recompute variants from the protocol.
  std::vector<double> ring_avgs;
  std::vector<double> rnd_avgs;
  std::vector<double> all_avgs;
  std::array<std::vector<double>, beff::kNumMethods> per_method;
  for (const auto& pm : r.patterns) {
    (pm.is_random ? rnd_avgs : ring_avgs).push_back(pm.avg_bw);
    all_avgs.push_back(pm.avg_bw);
    for (int m = 0; m < beff::kNumMethods; ++m) {
      double s = 0.0;
      for (const auto& sm : pm.sizes) {
        s += sm.method_bw[static_cast<std::size_t>(m)];
      }
      per_method[static_cast<std::size_t>(m)].push_back(s / 21.0);
    }
  }

  util::Table t({"rule variant", "value MB/s", "vs b_eff"});
  auto row = [&](const std::string& name, double v) {
    char rel[32];
    std::snprintf(rel, sizeof rel, "%+.0f%%", (v / r.b_eff - 1.0) * 100.0);
    t.add_row({name, util::format_mbps(v), rel});
  };

  row("b_eff (paper definition)", r.b_eff);
  row("A: arithmetic instead of logavg", util::mean(all_avgs));
  row("B: ring patterns only", r.rings_logavg);
  row("B': random patterns only", r.random_logavg);
  row("C: L_max only (asymptotic)", r.b_eff_at_lmax);
  for (int m = 0; m < beff::kNumMethods; ++m) {
    row(std::string("D: only ") + beff::method_name(static_cast<beff::Method>(m)),
        util::logavg2(util::logavg(std::span<const double>(
                          per_method[static_cast<std::size_t>(m)].data(), 6)),
                      util::logavg(std::span<const double>(
                          per_method[static_cast<std::size_t>(m)].data() + 6, 6))));
  }

  std::cout << "Averaging-rule ablation on " << spec.name << " (" << np
            << " procs)\n\n";
  t.render(std::cout);
  std::cout <<
      "\nReading: asymptotic-only (C) overstates by the latency share;\n"
      "rings-only (B) hides placement sensitivity that random patterns\n"
      "(B') expose; the method maximum (D rows vs b_eff) keeps vendor\n"
      "bias out of the comparison -- the rationale of paper Sec. 4.\n";
  return 0;
}
