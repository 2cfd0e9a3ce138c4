// Scenario DSL tests (core/scenario, docs/SCENARIOS.md): validation
// reports every violation with its key path; config-defined
// topologies lower onto the same link graph as built-ins (a
// single-leaf fat tree reproduces a crossbar machine's b_eff bytes);
// fault windows stay deterministic across --jobs; and every shipped
// example round-trips.
#include "core/scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/beff/beff.hpp"
#include "core/report/checkpoint.hpp"
#include "core/report/experiments.hpp"
#include "machines/machines.hpp"
#include "obs/json.hpp"
#include "parmsg/sim_transport.hpp"
#include "util/doc_sections.hpp"

namespace balbench::scenario {
namespace {

/// True when some violation message contains `needle`.
bool any_contains(const std::vector<std::string>& violations,
                  const std::string& needle) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const std::string& v) {
                       return v.find(needle) != std::string::npos;
                     });
}

std::string all_of_them(const std::vector<std::string>& violations) {
  std::string out;
  for (const std::string& v : violations) out += v + "\n";
  return out;
}

/// Smallest valid scenario: one built-in b_eff cell.
const char* kMinimal = R"({
  "schema": "balbench-scenario/1",
  "name": "minimal",
  "sweep": { "beff": [ { "machine": "t3e", "procs": [2] } ] }
})";

TEST(ScenarioParse, MinimalSceneryIsValid) {
  EXPECT_TRUE(validate_scenario_text(kMinimal).empty());
  const Scenario s = parse_scenario_text(kMinimal);
  EXPECT_EQ(s.name, "minimal");
  ASSERT_EQ(s.beff.size(), 1u);
  EXPECT_EQ(s.beff[0].machine, "t3e");
  EXPECT_EQ(s.beff[0].nprocs, 2);
  EXPECT_FALSE(s.has_faults);
  EXPECT_FALSE(s.has_fault_sweep);
}

TEST(ScenarioParse, ReportsEveryViolationWithKeyPath) {
  // Three independent problems: bad schema, a typo'd key, and an
  // unresolvable machine.  All three must come back at once.
  const auto violations = validate_scenario_text(R"({
    "schema": "balbench-scenario/9",
    "name": "broken",
    "typo_key": 1,
    "sweep": { "beff": [ { "machine": "nosuch", "procs": [2] } ] }
  })");
  EXPECT_GE(violations.size(), 3u) << all_of_them(violations);
  EXPECT_TRUE(any_contains(violations, "$.schema")) << all_of_them(violations);
  EXPECT_TRUE(any_contains(violations, "$.typo_key: unknown key"));
  EXPECT_TRUE(any_contains(violations, "$.sweep.beff[0].machine"));
  EXPECT_TRUE(any_contains(violations, "nosuch"));
}

TEST(ScenarioParse, ParseThrowsListingViolations) {
  try {
    (void)parse_scenario_text(R"({"schema": "balbench-scenario/1"})");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid scenario:"), std::string::npos);
    EXPECT_NE(what.find("$.name"), std::string::npos);
  }
}

TEST(ScenarioParse, MalformedJsonCarriesLineAndPath) {
  const auto violations =
      validate_scenario_text("{\n  \"schema\": nope\n}");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("line 2"), std::string::npos) << violations[0];
}

TEST(ScenarioParse, UnknownTopologyKindIsNamed) {
  const auto violations = validate_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "x",
    "machines": [ {
      "name": "m1", "max_procs": 4, "memory_per_proc_bytes": 1048576,
      "rmax_gflops_per_proc": 1.0,
      "roofline": { "peak_flops": 1e9, "mem_bw_Bps": 1e9, "net_bw_Bps": 1e8 },
      "topology": { "kind": "hypercube" }
    } ],
    "sweep": { "beff": [ { "machine": "m1", "procs": [2] } ] }
  })");
  EXPECT_TRUE(any_contains(violations, "$.machines[0].topology.kind"))
      << all_of_them(violations);
  EXPECT_TRUE(any_contains(violations, "hypercube"));
  EXPECT_TRUE(any_contains(violations, "dragonfly"));  // lists the kinds
}

TEST(ScenarioParse, CapacityAndProcsChecksFire) {
  const auto violations = validate_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "x",
    "machines": [ {
      "name": "m1", "max_procs": 32, "memory_per_proc_bytes": 1048576,
      "rmax_gflops_per_proc": 1.0,
      "roofline": { "peak_flops": 1e9, "mem_bw_Bps": 1e9, "net_bw_Bps": 1e8 },
      "topology": { "kind": "dragonfly", "groups": 2, "group_size": 4 }
    } ],
    "sweep": { "beff": [ { "machine": "m1", "procs": [64] } ] }
  })");
  // max_procs 32 > 2x4 endpoints, and a cell asking for 64 > max_procs.
  EXPECT_TRUE(any_contains(violations, "$.machines[0].max_procs"))
      << all_of_them(violations);
  EXPECT_TRUE(any_contains(violations, "8 endpoints"));
  EXPECT_TRUE(any_contains(violations, "$.sweep.beff[0].procs"));
}

TEST(ScenarioParse, FaultWindowMustBeOrdered) {
  const auto violations = validate_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "x",
    "sweep": { "beff": [ { "machine": "t3e", "procs": [2] } ] },
    "faults": { "spec": "link=0.1",
                "window": { "start_seconds": 2, "end_seconds": 1 } }
  })");
  EXPECT_TRUE(any_contains(violations, "$.faults.window"))
      << all_of_them(violations);
  EXPECT_TRUE(any_contains(violations, "end_seconds must be > start_seconds"));
}

TEST(ScenarioParse, EmptyScenarioSchedulesNothing) {
  const auto violations = validate_scenario_text(
      R"({"schema": "balbench-scenario/1", "name": "empty"})");
  EXPECT_TRUE(any_contains(violations, "schedules nothing"))
      << all_of_them(violations);
}

TEST(ScenarioParse, BeffIoRequiresAnIoSection) {
  // sr2201 (no io section) cannot run b_eff_io cells.
  const auto violations = validate_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "x",
    "sweep": { "beffio": [ { "machine": "sr2201", "procs": [2] } ] }
  })");
  EXPECT_TRUE(any_contains(violations, "no io section"))
      << all_of_them(violations);
}

TEST(ScenarioParse, FaultsCompileIntoAFaultPlan) {
  const Scenario s = parse_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "x",
    "sweep": { "beff": [ { "machine": "t3e", "procs": [2] } ] },
    "faults": { "spec": "link=0.25,degrade=0.4,seed=7",
                "window": { "start_seconds": 0.01, "end_seconds": 0.05 },
                "drop": { "rank": 1, "after_seconds": 0.02 } }
  })");
  ASSERT_TRUE(s.has_faults);
  EXPECT_EQ(s.faults.seed, 7u);
  EXPECT_DOUBLE_EQ(s.faults.link_degrade_prob, 0.25);
  EXPECT_DOUBLE_EQ(s.faults.degrade_factor, 0.4);
  EXPECT_DOUBLE_EQ(s.faults.window_start_s, 0.01);
  EXPECT_DOUBLE_EQ(s.faults.window_end_s, 0.05);
  EXPECT_EQ(s.faults.drop_rank, 1);
  EXPECT_DOUBLE_EQ(s.faults.drop_after_s, 0.02);
  // The compiled plan round-trips through the --faults grammar.
  const robust::FaultPlan reparsed =
      robust::FaultPlan::parse(s.faults.describe());
  EXPECT_EQ(reparsed.describe(), s.faults.describe());
}

TEST(ScenarioParse, ScenarioMachineShadowsNothingAndResolves) {
  const Scenario s = parse_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "x",
    "machines": [ {
      "name": "mini", "max_procs": 4, "memory_per_proc_bytes": 16777216,
      "rmax_gflops_per_proc": 0.5,
      "roofline": { "peak_flops": 5e8, "mem_bw_Bps": 1e9, "net_bw_Bps": 1e8 },
      "topology": { "kind": "crossbar", "port_bw_Bps": 1e8 }
    } ],
    "sweep": { "beff": [ { "machine": "mini", "procs": [2] },
                         { "machine": "t3e", "procs": [2] } ] }
  })");
  EXPECT_NE(s.find_machine("mini"), nullptr);
  EXPECT_EQ(s.find_machine("t3e"), nullptr);  // registry, not scenario
  EXPECT_EQ(s.resolve_machine("t3e").short_name, "t3e");
  EXPECT_EQ(s.resolve_machine("mini").max_procs, 4);
  EXPECT_THROW((void)s.resolve_machine("nosuch"), std::exception);
}

TEST(ScenarioParse, DescribeCoversEverythingHashed) {
  const Scenario s = parse_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "x",
    "machines": [ {
      "name": "mini", "max_procs": 4, "memory_per_proc_bytes": 16777216,
      "rmax_gflops_per_proc": 0.5,
      "roofline": { "peak_flops": 5e8, "mem_bw_Bps": 1e9, "net_bw_Bps": 1e8 },
      "topology": { "kind": "multi_rail", "rails": 2, "rail_bw_Bps": 1e8 }
    } ],
    "sweep": { "beff": [ { "machine": "mini", "procs": [2, 4] } ] },
    "fault_sweep": { "machine": "mini", "procs": 4,
                     "link_rates": [0, 0.5] }
  })");
  const std::string d = s.describe();
  EXPECT_NE(d.find("balbench-scenario/1 name=x"), std::string::npos) << d;
  EXPECT_NE(d.find("machine mini"), std::string::npos);
  EXPECT_NE(d.find("multi_rail rails=2"), std::string::npos);
  EXPECT_NE(d.find("beff mini np=2"), std::string::npos);
  EXPECT_NE(d.find("beff mini np=4"), std::string::npos);
  EXPECT_NE(d.find("fault-sweep mini np=4"), std::string::npos);
  EXPECT_NE(d.find("rates=0,0.5"), std::string::npos);
  // And the config hash depends on it.
  EXPECT_NE(report::config_hash(report::Scope::Quick, &s),
            report::config_hash(report::Scope::Quick, nullptr));
}

TEST(ScenarioParse, DisplayAndFigureDescribeOnlyWhenSet) {
  // Without the keys: neither token, so a scenario that does not use
  // them hashes as if the schema did not have them.
  const Scenario plain = parse_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "plain",
    "sweep": { "beff": [ { "machine": "t3e", "procs": [2] } ],
               "beffio": [ { "machine": "t3e", "procs": [2] } ],
               "kernels": [ { "machine": "t3e", "procs": [2] } ] },
    "fault_sweep": { "machine": "t3e", "procs": 2, "link_rates": [0] }
  })");
  EXPECT_EQ(plain.describe().find("display="), std::string::npos)
      << plain.describe();
  EXPECT_EQ(plain.describe().find("figure="), std::string::npos);
  report::ExperimentOptions options;
  options.scenario = &plain;
  const report::ExperimentsData rows = report::sweep_spec(options);
  EXPECT_EQ(rows.beff.at(0).display, "Cray T3E/900-512");  // machine name
  EXPECT_EQ(rows.io.at(0).figure, "fig3");

  const Scenario labelled = parse_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "labelled",
    "sweep": {
      "beff": [ { "machine": "t3e", "procs": [2], "display": "B" } ],
      "beffio": [ { "machine": "t3e", "procs": [2], "display": "I",
                    "figure": "fig5" } ],
      "kernels": [ { "machine": "t3e", "procs": [2], "display": "K" } ] },
    "fault_sweep": { "machine": "t3e", "procs": 2, "link_rates": [0],
                     "display": "F" }
  })");
  const std::string d = labelled.describe();
  for (const char* token :
       {"beff t3e np=2 analysis=0 display=\"B\"",
        "beffio t3e np=2 T=60 cap=0 figure=fig5 display=\"I\"",
        "kernels t3e np=2 display=\"K\"", "rates=0 display=\"F\""}) {
    EXPECT_NE(d.find(token), std::string::npos) << token << "\n" << d;
  }
  options.scenario = &labelled;
  const report::ExperimentsData labelled_rows = report::sweep_spec(options);
  EXPECT_EQ(labelled_rows.beff.at(0).display, "B");
  EXPECT_EQ(labelled_rows.io.at(0).display, "I");
  EXPECT_EQ(labelled_rows.io.at(0).figure, "fig5");
  EXPECT_EQ(labelled_rows.kernels.at(0).display, "K");
  EXPECT_EQ(labelled_rows.fault_sweep.at(0).display, "F");

  const auto violations = validate_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "bad",
    "sweep": { "beffio": [ { "machine": "t3e", "procs": [2],
                             "figure": "fig6" } ] }
  })");
  EXPECT_TRUE(any_contains(violations, "$.sweep.beffio[0].figure"))
      << all_of_them(violations);
}

// ---------------------------------------------------------------------------
// Topology lowering: a scenario fat tree with a single leaf is
// structurally a crossbar (routes {tx, rx}, same latency), so a
// config-defined clone of sr2201 must reproduce its b_eff result
// byte for byte -- config-defined machines flow through the exact
// same simulation path as built-ins.
// ---------------------------------------------------------------------------

beff::BeffResult run_beff_on(const machines::MachineSpec& m, int nprocs) {
  parmsg::SimTransport t(m.make_topology(nprocs), m.costs);
  beff::BeffOptions opt;
  opt.memory_per_proc = m.memory_per_proc;
  opt.measure_analysis = false;
  opt.collect_metrics = true;
  return beff::run_beff(t, nprocs, opt);
}

std::string record_bytes(const beff::BeffResult& r) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  report::write_beff_result(w, r);
  return os.str();
}

TEST(ScenarioLowering, SingleLeafFatTreeReproducesCrossbarBytes) {
  // sr2201: crossbar of 96 MiB/s ports, 50 us latency (machines.cpp).
  const Scenario s = parse_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "sr2201-as-fat-tree",
    "machines": [ {
      "name": "sr2201ft",
      "display": "Hitachi SR 2201",
      "max_procs": 16,
      "memory_per_proc_bytes": 268435456,
      "rmax_gflops_per_proc": 0.22,
      "roofline": {
        "peak_flops": 300e6, "mem_bw_Bps": 314572800, "cache_bytes": 0,
        "mem_latency_seconds": 300e-9, "net_bw_Bps": 104857600
      },
      "costs": {
        "send_overhead_seconds": 6e-6, "recv_overhead_seconds": 6e-6,
        "barrier_hop_seconds": 10e-6, "bcast_hop_seconds": 10e-6,
        "reduce_hop_seconds": 10e-6
      },
      "topology": {
        "kind": "fat_tree", "leaves": 1, "leaf_radix": 16, "spines": 1,
        "port_bw_Bps": 100663296, "up_bw_Bps": 402653184,
        "latency_seconds": 50e-6
      }
    } ],
    "sweep": { "beff": [ { "machine": "sr2201ft", "procs": [8] } ] }
  })");
  const machines::MachineSpec built_in = machines::machine_by_name("sr2201");
  const machines::MachineSpec configured = s.resolve_machine("sr2201ft");
  const std::string want = record_bytes(run_beff_on(built_in, 8));
  const std::string got = record_bytes(run_beff_on(configured, 8));
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Fault-window determinism: the full scenario pipeline (cells + fault
// sweep + windowed plan) is byte-identical for every --jobs value.
// ---------------------------------------------------------------------------

const char* kFaultScenario = R"({
  "schema": "balbench-scenario/1",
  "name": "window-determinism",
  "sweep": { "beff": [ { "machine": "sr2201", "procs": [4] } ] },
  "faults": { "spec": "link=0.2,degrade=0.5",
              "window": { "start_seconds": 0.005, "end_seconds": 0.02 } },
  "fault_sweep": { "machine": "sr2201", "procs": 4,
                   "link_rates": [0, 0.5],
                   "window": { "start_seconds": 0.005,
                               "end_seconds": 0.02 } }
})";

std::string run_record_bytes(const Scenario& s, int jobs) {
  report::ExperimentOptions opt;
  opt.scope = report::Scope::Quick;
  opt.jobs = jobs;
  opt.scenario = &s;
  const report::ExperimentsData data = report::run_experiments(opt);
  std::ostringstream os;
  report::write_run_record(os, data,
                           report::config_hash(opt.scope, &s), "test");
  return os.str();
}

TEST(ScenarioDeterminism, WindowedFaultsAreJobsInvariant) {
  const Scenario s = parse_scenario_text(kFaultScenario);
  const std::string j1 = run_record_bytes(s, 1);
  EXPECT_EQ(run_record_bytes(s, 2), j1);
  EXPECT_EQ(run_record_bytes(s, 4), j1);
  // The record carries the scenario name, the compiled window and the
  // sweep points (sanity against a vacuous byte-compare).
  EXPECT_NE(j1.find("\"scenario\": \"window-determinism\""),
            std::string::npos);
  EXPECT_NE(j1.find("window-start=0.005"), std::string::npos);
  EXPECT_NE(j1.find("\"fault_sweep\""), std::string::npos);
  EXPECT_NE(j1.find("\"link_rate\": 0.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rendered sections: a scenario's markdown holds only what its sweep
// computes.
// ---------------------------------------------------------------------------

struct Rendered {
  report::ExperimentsData data;
  std::vector<util::DocSection> sections;
  std::string markdown;  // what `--markdown NEW_FILE` writes
};

Rendered render_scenario(const Scenario& s) {
  report::ExperimentOptions opt;
  opt.scope = report::Scope::Quick;
  opt.jobs = 2;
  opt.scenario = &s;
  Rendered r;
  r.data = report::run_experiments(opt);
  r.sections = report::render_experiments_sections(
      r.data, report::config_hash(opt.scope, &s));
  r.markdown = util::splice_sections("", r.sections);
  return r;
}

/// The Table 1 row of `display` at `nprocs` procs, or "" if absent.
std::string table1_row(const std::string& md, const std::string& display,
                       int nprocs) {
  std::istringstream in(md);
  const std::string prefix =
      "| " + display + " | " + std::to_string(nprocs) + " | ";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

TEST(ScenarioMarkdown, AnalysisRowsPrintTheirMeasuredPingPong) {
  const Scenario s = parse_scenario_text(R"({
    "schema": "balbench-scenario/1",
    "name": "pingpong",
    "sweep": { "beff": [ { "machine": "t3e", "procs": [2], "analysis": true },
                         { "machine": "sx5", "procs": [4] } ] }
  })");
  const Rendered r = render_scenario(s);
  ASSERT_EQ(r.data.beff.size(), 2u);
  const double pingpong_mbps =
      r.data.beff[0].r.analysis.pingpong_bw / (1024.0 * 1024.0);
  ASSERT_GT(pingpong_mbps, 0.0);
  ASSERT_LT(pingpong_mbps, 999.0);  // no thousands separator below
  const std::string t3e = table1_row(r.markdown, r.data.beff[0].display, 2);
  const std::string sx5 = table1_row(r.markdown, r.data.beff[1].display, 4);
  EXPECT_EQ(t3e.substr(t3e.rfind("| ")),
            "| " + std::to_string(std::llround(pingpong_mbps)) + " |")
      << t3e;
  // No analysis cells, no ping-pong.
  EXPECT_EQ(sx5.substr(sx5.rfind("| ")), "| — |") << sx5;
}

TEST(ScenarioMarkdown, ProcurementWhatifHoldsNoHandWrittenProse) {
  const std::string dir = BALBENCH_SCENARIO_EXAMPLES_DIR;
  const Scenario s = load_scenario_file(dir + "/procurement-whatif.json");
  const Rendered r = render_scenario(s);
  // The renderer lists every section it owns; only two are generated.
  std::vector<std::string> names, generated;
  for (const auto& sec : r.sections) {
    names.push_back(sec.name);
    if (!sec.text.empty()) generated.push_back(sec.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "TABLE 1", "FIGURE 1", "FIGURE 3", "FIGURE 4",
                       "FIGURE 5", "BALANCE CHARACTERIZATION",
                       "FAULT-SCENARIO SWEEPS", "SIDE RESULTS"}));
  EXPECT_EQ(generated,
            (std::vector<std::string>{"TABLE 1", "SIDE RESULTS"}));
  // The prose that lives in EXPERIMENTS.md only, about the built-in
  // machines, the paper's reading of them or the repository, never
  // reaches a scenario's markdown -- neither this one's nor that of
  // the examples whose kernel cells fill the balance table.
  for (const std::string& markdown :
       {r.markdown,
        render_scenario(load_scenario_file(dir + "/dragonfly-study.json"))
            .markdown,
        render_scenario(load_scenario_file(dir + "/pattern-mix.json"))
            .markdown}) {
    for (const char* moved :
         {"# EXPERIMENTS", "Comparison markers are rule-generated",
          "Shape checks that hold", "Shared-memory systems land",
          "Systematic bias", "Table 2 / Figure 2", "b_eff measurement time",
          "L_SEG segment rounding", "Extensions beyond",
          "Parameter provenance", "Known deviations",
          "Wall-clock of the regeneration sweep", "512-process cells",
          "Matches the paper's reading", "The paper's figure likewise",
          "orders of magnitude", "STREAM/R_max separates"}) {
      EXPECT_EQ(markdown.find(moved), std::string::npos) << moved;
    }
  }
  // Each machine's row carries the ping-pong its record holds.
  EXPECT_NE(table1_row(r.markdown, "T3E-class, NIC 165 MB/s", 64)
                .find("| 103 | 165 |"),
            std::string::npos)
      << r.markdown;
  // A section an earlier sweep wrote but this one does not generate is
  // stale: the check names it and a splice removes it.
  const std::string stale = r.markdown +
                            "\n<!-- BEGIN FIGURE 1 -->\nold\n"
                            "<!-- END FIGURE 1 -->\n";
  EXPECT_EQ(util::check_sections(stale, r.sections),
            "section FIGURE 1 is no longer generated");
  EXPECT_EQ(util::splice_sections(stale, r.sections), r.markdown);
}

// ---------------------------------------------------------------------------
// Shipped examples: every file under examples/scenarios/ (the worked
// examples of docs/SCENARIOS.md) validates, parses, and describes.
// ---------------------------------------------------------------------------

TEST(ScenarioExamples, AllShippedExamplesRoundTrip) {
  const std::filesystem::path dir = BALBENCH_SCENARIO_EXAMPLES_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++count;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto violations = validate_scenario_text(buf.str());
    EXPECT_TRUE(violations.empty())
        << entry.path() << ":\n" << all_of_them(violations);
    const Scenario s = parse_scenario_text(buf.str());
    EXPECT_FALSE(s.name.empty()) << entry.path();
    EXPECT_NE(s.describe().find("name=" + s.name), std::string::npos);
    EXPECT_FALSE(s.beff.empty() && s.io.empty() && s.kernels.empty() &&
                 !s.has_fault_sweep)
        << entry.path() << " schedules nothing";
  }
  EXPECT_GE(count, 3u) << "expected the three worked examples of "
                          "docs/SCENARIOS.md under " << dir;
}

}  // namespace
}  // namespace balbench::scenario
