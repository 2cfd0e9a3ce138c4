// Declarative scenario DSL (schema "balbench-scenario/1").
//
// A scenario file turns the three compiled-in axes of the sweep into
// data: (a) machines -- a machines::Roofline, per-call costs and a
// topology (the four built-in kinds plus dragonfly, fat tree,
// multi-rail and explicit adjacency graphs) lowered onto the net/flow
// link graph; (b) the pattern mix -- which beff / beffio / kernel
// cells to run and with what parameters; and (c) correlated fault
// scenarios -- a robust::FaultPlan, optionally confined to a
// virtual-time window or dropping a rank mid-collective, plus a
// fault-rate sweep.  `balbench-report --scenario FILE` and
// `balbench-perf --scenario FILE` run these exactly like built-ins:
// same checkpoint/resume, traces, metrics and byte-identity contract
// for any --jobs N.
//
// The complete key-by-key reference (types, defaults, units, worked
// examples) is docs/SCENARIOS.md; the schema row lives in
// docs/FORMATS.md.  Parsing uses obs::parse_json, so syntax errors
// carry line/column and key-path diagnostics.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "machines/machines.hpp"
#include "obs/json.hpp"
#include "robust/fault.hpp"

namespace balbench::scenario {

/// Schema or semantic violation in a scenario document.  The message
/// lists every violation found (one per line, each prefixed with its
/// key path), not just the first.
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& what) : std::runtime_error(what) {}
};

/// One config-defined machine: the lowered MachineSpec (usable
/// anywhere a registry machine is) plus the canonical one-line
/// parameterization that feeds the config hash.
struct MachineEntry {
  machines::MachineSpec spec;
  std::string canonical;
};

/// One b_eff cell of the scenario's pattern mix.
struct BeffCell {
  std::string machine;  // scenario machine name or registry short name
  int nprocs = 0;
  bool analysis = false;  // also measure ping-pong/bisection cells
  std::string display;    // row label; empty = the machine's name
};

/// One b_eff_io cell.
struct IoCell {
  std::string machine;
  int nprocs = 0;
  double scheduled_seconds = 60.0;
  std::int64_t mpart_cap = 0;  // 0 = uncapped
  std::string figure;   // "fig3" | "fig4" | "fig5"; empty = fig3
  std::string display;  // row label; empty = the machine's name
};

/// One kernel-suite cell.
struct KernelCell {
  std::string machine;
  int nprocs = 0;
  std::string display;  // row label; empty = the machine's name
};

/// A fault-rate sweep: the same b_eff cell re-run once per link
/// fault rate, for the b_eff-degradation charts.
struct FaultSweep {
  std::string machine;
  int nprocs = 0;
  std::vector<double> rates;  // link degrade probabilities, in order
  double degrade_factor = 0.5;
  std::uint64_t seed = 2001;
  double window_start_s = 0.0;
  double window_end_s = 0.0;  // 0 = no window
  std::string display;  // row label; empty = the machine's name
};

struct Scenario {
  std::string name;
  std::vector<MachineEntry> machines;
  std::vector<BeffCell> beff;
  std::vector<IoCell> io;
  std::vector<KernelCell> kernels;
  /// Scenario-wide fault plan ("faults" section); applied to every
  /// cell like --faults is.  has_faults distinguishes "no section"
  /// from an all-defaults plan.
  bool has_faults = false;
  robust::FaultPlan faults;
  bool has_fault_sweep = false;
  FaultSweep fault_sweep;

  /// Scenario machine by name; nullptr if the scenario defines none
  /// with that name (the caller falls back to the registry).
  [[nodiscard]] const machines::MachineSpec* find_machine(
      const std::string& key) const;
  /// Scenario machine if defined, else machines::machine_by_name.
  [[nodiscard]] machines::MachineSpec resolve_machine(
      const std::string& key) const;

  /// Canonical description of everything that can change a result
  /// byte: every machine parameter, every cell, the fault plan and
  /// the fault sweep.  The config hash of every sweep, built-in or
  /// not, is taken over it (report::config_hash).
  [[nodiscard]] std::string describe() const;
};

/// Parses and validates a scenario document.  Throws ScenarioError
/// listing every schema violation (unknown keys, wrong types, missing
/// required fields, out-of-range values, unresolvable machine
/// references); throws std::runtime_error (from obs::parse_json) on
/// malformed JSON.
Scenario parse_scenario(const obs::JsonValue& doc);
Scenario parse_scenario_text(std::string_view text);

/// Reads `path` and parses it.  Throws ScenarioError if the file
/// cannot be read.
Scenario load_scenario_file(const std::string& path);

/// Lint mode: every violation in the document, one message per entry
/// (empty = valid).  JSON syntax errors come back as a single entry.
/// `balbench-report --validate-scenario` prints these and exits 2.
std::vector<std::string> validate_scenario_text(std::string_view text);

}  // namespace balbench::scenario
