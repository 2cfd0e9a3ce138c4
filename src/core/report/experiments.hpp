// The self-regenerating experiments pipeline (DESIGN.md Sec. 10.4).
//
// One function runs the *entire* sweep behind EXPERIMENTS.md -- every
// (machine, partition) b_eff configuration of Table 1/Fig. 1 and every
// (machine, T, partition) b_eff_io configuration of Figs. 3-5, plus the
// Sec. 5.4 termination-check microbenchmark -- and returns the results
// in one structured value.  Two writers consume it:
//
//   * write_run_record()      -- a JSON run record (schema
//                                "balbench-run-record/1"): config hash,
//                                git revision, per-cell bandwidths and
//                                the merged obs metric snapshots;
//   * render_experiments_md() -- the full EXPERIMENTS.md document, every
//                                measured number recomputed, each table
//                                marked with the generating command and
//                                the config hash.
//
// run_experiments() is spec construction (sweep_spec) plus
// run_cells(), the one cell runner: the bench/ table and figure
// binaries take their rows from the same specs (beff_specs, io_specs,
// fig1_points) and run them through it too, so they are views of these
// cells, and balbench-perf times single rows of sweep_spec() through
// it.
//
// Determinism contract: both outputs are pure functions of (scope,
// code); the host-side `jobs` knob never changes a byte (asserted at
// --jobs 1/2/4 in tests/report/run_record_test.cpp and by the
// `doc_drift_guard` ctest, which re-renders the committed
// EXPERIMENTS.md).  All bandwidths in the record are bytes per VIRTUAL
// second; all durations are virtual seconds (DESIGN.md Sec. 10.2).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/beff/beff.hpp"
#include "core/beffio/beffio.hpp"
#include "core/kernels/kernels.hpp"
#include "robust/fault.hpp"

namespace balbench::scenario {
struct Scenario;
}

namespace balbench::report {

/// Sweep size.  Doc is the configuration that regenerates the
/// committed EXPERIMENTS.md (full Table 1 partitions, ~2.5 min on one
/// core); Quick is a small subset used by the byte-identity tests.
enum class Scope { Quick, Doc };
const char* scope_name(Scope s);

/// Table 1 reference values from the paper, in MByte/s as printed
/// there.  0 = the paper's table has no such row/cell; pingpong -1 =
/// the row exists but the paper leaves the ping-pong cell empty.
struct PaperBeffRow {
  double b_eff = 0.0;
  double per_proc = 0.0;
  double at_lmax_per_proc = 0.0;
  double ring_per_proc = 0.0;
  double pingpong = 0.0;
};

/// One b_eff configuration of the sweep plus its result.
struct BeffRun {
  std::string key;      // machines::machine_by_name() key
  std::string display;  // row label, e.g. "Cray T3E/900"
  int nprocs = 0;
  bool first = false;   // first partition of its machine (analysis cells on)
  bool in_table = false;  // appears as a Table 1 row
  PaperBeffRow paper;
  std::int64_t memory_per_proc = 0;
  double rmax_gflops_per_proc = 0.0;
  beff::BeffResult r;
};

/// One b_eff_io configuration of the sweep plus its result.
struct IoRun {
  std::string key;
  std::string display;
  std::string figure;   // "fig3" | "fig4" | "fig5"
  int nprocs = 0;
  double scheduled_seconds = 0.0;
  std::int64_t mpart_cap = 0;  // 0 = uncapped
  beffio::BeffIoResult r;
};

/// One kernel-suite configuration of the sweep plus its result: the
/// compute side of the balance table (simulated HPCC-style kernels,
/// DESIGN.md Sec. 14).  One cell runs the *whole* suite on one
/// (machine, partition).
struct KernelRun {
  std::string key;      // machines::machine_by_name() key
  std::string display;  // row label, e.g. "Cray T3E/900"
  int nprocs = 0;
  /// Published Linpack R_max per processor (GFlop/s) for the
  /// paper-vs-measured comparison marker; 0 = not published.
  double rmax_gflops_per_proc = 0.0;
  kernels::KernelSuiteResult r;
};

/// One point of the fault-rate sweep: a b_eff cell re-run under an
/// injected link-fault rate (the "Fault-scenario sweeps" section of
/// EXPERIMENTS.md).  The plan is part of the spec -- it feeds the
/// config hash, so a journal can never mix sweeps with different
/// fault parameters.
struct FaultSweepRun {
  std::string key;
  std::string display;
  int nprocs = 0;
  double rate = 0.0;  // per-message link degradation probability
  robust::FaultPlan plan;
  beff::BeffResult r;
};

struct ExperimentsData {
  Scope scope = Scope::Quick;
  /// Scenario name when the sweep came from --scenario FILE; empty for
  /// the built-in sweep (keeps built-in records byte-identical).
  std::string scenario;
  std::vector<BeffRun> beff;
  std::vector<IoRun> io;
  std::vector<KernelRun> kernels;
  std::vector<FaultSweepRun> fault_sweep;
  /// Simulated barrier+bcast on 32 T3E PEs (paper Sec. 5.4), seconds.
  double termination_check_seconds = 0.0;
  /// Per-call overhead of a small I/O access on the T3E, seconds.
  double io_call_seconds = 0.0;
  /// FaultPlan::describe() of the active fault plan; empty when faults
  /// are off, so fault-free run records keep their exact pre-fault
  /// byte stream (DESIGN.md Sec. 12.1).
  std::string faults;
};

/// The sweep specification's b_eff (machine, partition) and b_eff_io
/// (machine, T, partition) rows of `scope`, with empty results.
/// Exposed so the bench/ table and figure binaries can enumerate,
/// subset or label the exact cells the pipeline runs; the returned
/// order is the pipeline's execution-slot order.  sweep_spec() below
/// returns every row, kernel and fault-sweep rows included.
std::vector<BeffRun> beff_specs(Scope scope);
std::vector<IoRun> io_specs(Scope scope);

/// One bar of Figure 1 (balance factor b_eff / R_max): the b_eff cell
/// (machine key, partition) it plots and its bar label.
struct Fig1Point {
  const char* key;
  int nprocs;
  const char* label;
};

/// Figure 1's membership, declared once: the EXPERIMENTS.md section
/// and bench/fig1_balance both plot exactly the b_eff cells listed
/// here that their sweep holds.
const std::vector<Fig1Point>& fig1_points();

/// Knobs of one sweep invocation beyond the scope itself (robustness
/// layer, DESIGN.md Sec. 12).
struct ExperimentOptions {
  Scope scope = Scope::Quick;
  int jobs = 1;
  bool verbose = false;
  /// Deterministic fault plan (not owned, must outlive the call).
  /// Forwarded into every benchmark driver; per-cell retry outcomes
  /// land in the results and the run record.  nullptr = faults off.
  const robust::FaultPlan* fault_plan = nullptr;
  /// Path of a sweep-checkpoint journal; empty = no journal.
  /// The journal is atomically rewritten after every completed task.
  std::string checkpoint_path;
  /// Replay tasks already completed in the journal instead of
  /// re-simulating them; the final outputs are byte-identical to an
  /// uninterrupted run (the robust_kill_resume ctest proves it).
  bool resume = false;
  /// Test hook: raise SIGKILL after this many NEWLY checkpointed tasks
  /// (0 = never), simulating a mid-flight crash for the resume test.
  int kill_after = 0;
  /// Config-defined sweep (not owned, must outlive the call).  When
  /// set, the cell lists come from the scenario instead of the
  /// built-in specs, machine keys resolve scenario-first, the
  /// scenario's fault plan applies when `fault_plan` is null (the CLI
  /// flag wins), and the scenario's fault sweep replaces the built-in
  /// one.  Everything downstream -- journal, records, rendering,
  /// byte-identity across jobs -- behaves exactly as for built-ins.
  const scenario::Scenario* scenario = nullptr;
};

/// The cell lists `options` selects, with empty results: the
/// scenario's cells when options.scenario is set, else the built-in
/// specs of options.scope.  This is what run_experiments() runs;
/// balbench-perf walks the same rows to name and time its cells.
ExperimentsData sweep_spec(const ExperimentOptions& options);

/// Runs the whole sweep with options.jobs host worker threads (outer
/// parallelism over configurations; each simulation itself is serial)
/// and the robustness knobs (fault injection, crash-safe
/// checkpointing, resume): sweep_spec(options) run through
/// run_cells().  Metrics collection is always on; every result is
/// byte-identical for every jobs value.  options.verbose logs per-cell
/// start/finish lines with host wall times to stderr -- stderr only,
/// so it can never perturb the byte-compared outputs (asserted by the
/// doc_drift_guard ctest, which runs with --verbose on).  The
/// termination-check micro task runs after the cells and is always
/// recomputed, never journaled or fault-injected: it is cheap and
/// feeds only informational fields.
ExperimentsData run_experiments(const ExperimentOptions& options);

/// The one cell runner: simulates every b_eff, b_eff_io, kernel and
/// fault-sweep cell of `data` in place on options.jobs host threads,
/// each cell in its own simulator, results in their list slots --
/// byte-identical for every jobs value.  The lists are taken as given,
/// so a driver may run any subset or edit of the spec rows.  Honours
/// options.verbose, fault_plan, checkpoint_path/resume/kill_after and
/// the scenario's machines and fault plan; journal task keys are the
/// list indices ("beff/i", "io/i", "faultsweep/i").
void run_cells(ExperimentsData& data, const ExperimentOptions& options);

/// FNV-1a (64-bit, hex) over the canonical description of the sweep
/// configuration.  Stamped into both outputs so a record can be
/// matched to the configuration that produced it.  With `sc` null it
/// hashes the built-in specs of `scope` -- machines, partitions,
/// scheduled times, seeds and aggregation constants; with a scenario
/// it hashes the scenario's canonical describe() (machines, cells,
/// fault plan, fault sweep) instead.
std::string config_hash(Scope scope, const scenario::Scenario* sc);

/// `git rev-parse --short HEAD`, or "unknown" outside a work tree.
/// Provenance only: it goes into the JSON record, never the rendered
/// document (whose bytes must not depend on repository state).
std::string git_revision();

/// JSON run record, schema "balbench-run-record/1" (DESIGN.md
/// Sec. 10.4): provenance, per-run headline bandwidths (bytes per
/// virtual second), per-pattern/-type cell bandwidths, and the merged
/// obs::MetricsSnapshot of every run.
void write_run_record(std::ostream& os, const ExperimentsData& data,
                      const std::string& cfg_hash, const std::string& git_rev);

/// JSON kernel record, schema "balbench-kernel-record/1": provenance
/// plus every kernel cell of the sweep (per-kernel flops, memory and
/// interconnect traffic, virtual seconds, headline value) and the
/// derived per-machine balance factors (b_eff/R_max, b_eff_io/R_max,
/// STREAM/R_max -- the formulas of docs/METRICS.md).  The same data
/// also appears inside the run record's "kernels" array; this record
/// is the standalone export for kernel-only consumers.
void write_kernel_record(std::ostream& os, const ExperimentsData& data,
                         const std::string& cfg_hash,
                         const std::string& git_rev);

/// Renders the complete EXPERIMENTS.md.  Every measured number in the
/// document is recomputed from `data`; paper reference values and the
/// comparison markers come from a fixed rule (within 10 % = check mark,
/// within 50 % = approx, otherwise the ratio is printed).  Sections
/// whose configurations are absent from `data` (Quick scope) are
/// omitted bullet-by-bullet, never approximated.
void render_experiments_md(std::ostream& os, const ExperimentsData& data,
                           const std::string& cfg_hash);

/// Same document with a pre-rendered performance-history section (see
/// core/history, DESIGN.md Sec. 13) appended after a blank line.  The
/// section arrives as opaque bytes so core/report stays independent of
/// core/history; pass "" for the plain document.  The marker lines
/// inside the section let `balbench-history` splice updates in place
/// without re-running the sweep.
void render_experiments_md(std::ostream& os, const ExperimentsData& data,
                           const std::string& cfg_hash,
                           const std::string& trend_section);

}  // namespace balbench::report
