// The sweep specification covers its views: every cell the Table 1 /
// Figure 1 sections and the bench/ table and figure binaries read
// resolves to a spec row, so none of them can silently drop a bar or
// a row (the renderer skips cells its sweep does not hold).  And the
// built-in sweeps are plain scenario documents: the files under
// src/core/report/sweeps/ are the compiled-in text, and run as a
// --scenario they schedule the same work under the same config hash.
#include "core/report/experiments.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario/scenario.hpp"
#include "machines/machines.hpp"

namespace balbench::report {
namespace {

ExperimentsData spec(Scope scope) {
  ExperimentOptions options;
  options.scope = scope;
  return sweep_spec(options);
}

int count_beff(const std::vector<BeffRun>& specs, const std::string& key,
               int nprocs) {
  int n = 0;
  for (const auto& b : specs) n += b.key == key && b.nprocs == nprocs;
  return n;
}

std::set<std::string> io_machines(const std::vector<IoRun>& specs,
                                  const std::string& figure) {
  std::set<std::string> keys;
  for (const auto& r : specs) {
    if (r.figure == figure) keys.insert(r.key);
  }
  return keys;
}

std::string sweep_file(Scope scope) {
  return std::string(BALBENCH_SWEEPS_DIR) + "/" + scope_name(scope) + ".json";
}

TEST(SweepSpec, EveryFigure1PointIsOneDocCell) {
  const auto specs = spec(Scope::Doc).beff;
  for (const auto& p : fig1_points()) {
    SCOPED_TRACE(std::string(p.key) + "/" + std::to_string(p.nprocs));
    EXPECT_EQ(count_beff(specs, p.key, p.nprocs), 1);
    // The bar divides by R_max: a machine without one drops the bar.
    EXPECT_GT(machines::machine_by_name(p.key).rmax_gflops_per_proc, 0.0);
  }
}

TEST(SweepSpec, EveryPaperRowIsExactlyOneDocCell) {
  const auto specs = spec(Scope::Doc).beff;
  std::set<std::pair<std::string, int>> seen;
  for (const auto& p : paper_table1()) {
    SCOPED_TRACE(std::string(p.key) + "/" + std::to_string(p.nprocs));
    EXPECT_EQ(count_beff(specs, p.key, p.nprocs), 1);
    EXPECT_GT(p.b_eff, 0.0);
    EXPECT_TRUE(seen.insert({p.key, p.nprocs}).second) << "duplicate row";
  }
  EXPECT_FALSE(seen.empty());
}

TEST(SweepSpec, BeffRowsAreGroupedByMachineWithTheFirstCarryingAnalysis) {
  // paper_views' Table 1 labels a machine on its first row only, and the
  // analysis cells (ping-pong column) run there.
  for (Scope scope : {Scope::Quick, Scope::Doc}) {
    SCOPED_TRACE(scope_name(scope));
    const auto specs = spec(scope).beff;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const bool first = i == 0 || specs[i - 1].key != specs[i].key;
      EXPECT_EQ(specs[i].first, first) << specs[i].key << "/" << specs[i].nprocs;
      if (first) {
        EXPECT_TRUE(seen.insert(specs[i].key).second) << specs[i].key;
      }
      const auto m = machines::machine_by_name(specs[i].key);
      EXPECT_LE(specs[i].nprocs, m.max_procs) << specs[i].key;
    }
  }
}

TEST(SweepSpec, DocIoRowsCoverEveryMachineTheFiguresRender) {
  const auto specs = spec(Scope::Doc).io;
  EXPECT_EQ(io_machines(specs, "fig3"), (std::set<std::string>{"t3e", "sp"}));
  const std::set<std::string> four{"sp", "t3e", "sr8000", "sx5"};
  EXPECT_EQ(io_machines(specs, "fig4"), four);
  EXPECT_EQ(io_machines(specs, "fig5"), four);

  // Figure 3 is a (machine x process count) grid: every machine runs
  // the same partitions.
  std::vector<int> t3e_procs, sp_procs;
  for (const auto& r : specs) {
    if (r.figure != "fig3") continue;
    (r.key == "t3e" ? t3e_procs : sp_procs).push_back(r.nprocs);
  }
  EXPECT_EQ(t3e_procs, (std::vector<int>{2, 4, 8, 16, 32, 64, 128}));
  EXPECT_EQ(sp_procs, t3e_procs);
}

TEST(SweepSpec, IoRowsRunOnTheirMachinesAndGroupByFigureAndMachine) {
  // paper_views' Figure 5 separates each run of adjacent same-machine
  // rows, and every figure needs its rows.
  for (Scope scope : {Scope::Quick, Scope::Doc}) {
    SCOPED_TRACE(scope_name(scope));
    const auto specs = spec(scope).io;
    std::set<std::pair<std::string, std::string>> closed;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& r = specs[i];
      const auto m = machines::machine_by_name(r.key);
      EXPECT_TRUE(m.io.has_value()) << r.key;
      EXPECT_LE(r.nprocs, m.max_procs) << r.figure << "/" << r.key;
      if (i > 0 && (specs[i - 1].figure != r.figure || specs[i - 1].key != r.key)) {
        closed.insert({specs[i - 1].figure, specs[i - 1].key});
      }
      EXPECT_EQ(closed.count({r.figure, r.key}), 0u)
          << r.figure << "/" << r.key << " rows are not adjacent";
    }
    for (const char* figure : {"fig3", "fig4", "fig5"}) {
      EXPECT_FALSE(io_machines(specs, figure).empty()) << figure;
    }
  }
}

TEST(BuiltinSweeps, FilesAreTheCompiledInDocuments) {
  for (Scope scope : {Scope::Quick, Scope::Doc}) {
    SCOPED_TRACE(scope_name(scope));
    std::ifstream in(sweep_file(scope), std::ios::binary);
    ASSERT_TRUE(in) << sweep_file(scope);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), builtin_sweep_text(scope));
  }
}

TEST(BuiltinSweeps, AsAScenarioTheyHashLikeTheirScope) {
  for (Scope scope : {Scope::Quick, Scope::Doc}) {
    SCOPED_TRACE(scope_name(scope));
    const scenario::Scenario sc =
        scenario::load_scenario_file(sweep_file(scope));
    EXPECT_EQ(sc.name, scope_name(scope));
    EXPECT_EQ(config_hash(scope, &sc), config_hash(scope, nullptr));
  }
  EXPECT_NE(config_hash(Scope::Quick, nullptr),
            config_hash(Scope::Doc, nullptr));
}

TEST(BuiltinSweeps, QuickAsAScenarioDiffersOnlyInTheScenarioField) {
  const scenario::Scenario sc =
      scenario::load_scenario_file(sweep_file(Scope::Quick));
  auto record = [&](const scenario::Scenario* scenario) {
    ExperimentOptions options;
    options.jobs = 4;
    options.scenario = scenario;
    const ExperimentsData data = run_experiments(options);
    std::ostringstream os;
    write_run_record(os, data, config_hash(Scope::Quick, scenario), "rev");
    return os.str();
  };
  const std::string builtin = record(nullptr);
  std::string from_file = record(&sc);
  const std::string field = " \"scenario\": \"quick\",\n";
  const std::size_t at = from_file.find(field);
  ASSERT_NE(at, std::string::npos) << from_file.substr(0, 200);
  from_file.erase(at, field.size());
  EXPECT_EQ(from_file, builtin);
}

}  // namespace
}  // namespace balbench::report
