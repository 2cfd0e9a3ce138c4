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
//   * render_experiments_sections() -- the generated sections of
//                                EXPERIMENTS.md, every measured number
//                                recomputed, each marked with the
//                                generating command and the config
//                                hash; the prose around them is
//                                hand-written (util/doc_sections.hpp).
//
// There is one sweep specification: a balbench-scenario/1 document
// (core/scenario).  The built-in quick and doc sweeps are two such
// documents, src/core/report/sweeps/{quick,doc}.json, compiled into
// this library (builtin_sweep_text), so a built-in run and a
// --scenario run take the same path from document to cells.
//
// run_experiments() is spec construction (sweep_spec) plus
// run_cells(), the one cell runner: bench/paper_views takes its rows
// from the same sweep_spec() (plus fig1_points) and runs them through
// it too, so its tables and plots are views of these cells, and
// balbench-perf times single rows of sweep_spec() through it.
//
// Determinism contract: both outputs are pure functions of (scope,
// code); the host-side `jobs` knob never changes a byte (asserted at
// --jobs 1/2/4 in tests/report/run_record_test.cpp and by the
// `doc_drift_guard` ctest, which re-renders the generated sections of
// the committed EXPERIMENTS.md).  All bandwidths in the record are bytes per VIRTUAL
// second; all durations are virtual seconds (DESIGN.md Sec. 10.2).
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/beff/beff.hpp"
#include "core/beffio/beffio.hpp"
#include "core/kernels/kernels.hpp"
#include "robust/fault.hpp"
#include "util/doc_sections.hpp"

namespace balbench::scenario {
struct Scenario;
}

namespace balbench::report {

/// Sweep size.  Doc is the configuration that regenerates the
/// committed EXPERIMENTS.md (full Table 1 partitions, ~2.5 min on one
/// core); Quick is a small subset used by the byte-identity tests.
enum class Scope { Quick, Doc };
const char* scope_name(Scope s);
/// The Scope named "quick" or "doc"; nullopt for any other name.
std::optional<Scope> parse_scope(std::string_view name);

/// The compiled-in balbench-scenario/1 document of a built-in sweep
/// (src/core/report/sweeps/<scope>.json).
std::string_view builtin_sweep_text(Scope scope);

/// One Table 1 row of the paper: its (machine key, partition) and
/// reference values in MByte/s as printed there.  0 = the paper's
/// table has no such cell; pingpong -1 = the paper leaves the
/// ping-pong cell empty.
struct PaperBeffRow {
  const char* key = "";
  int nprocs = 0;
  double b_eff = 0.0;
  double per_proc = 0.0;
  double at_lmax_per_proc = 0.0;
  double ring_per_proc = 0.0;
  double pingpong = 0.0;
};

/// The paper's Table 1, in its row order.  A built-in sweep's b_eff
/// row is a Table 1 row exactly when this table holds its (key,
/// nprocs); a scenario's rows are all Table 1 rows, without
/// references.
const std::vector<PaperBeffRow>& paper_table1();

/// One b_eff configuration of the sweep plus its result.
struct BeffRun {
  std::string key;      // machines::machine_by_name() key
  std::string display;  // row label, e.g. "Cray T3E/900"
  int nprocs = 0;
  bool first = false;   // first partition of its machine (analysis cells on)
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

/// The worst per-cell outcome of the sweep's b_eff, b_eff_io and
/// fault-sweep rows (Ok when faults are off).
robust::Outcome worst_outcome(const ExperimentsData& data);

/// One bar of Figure 1 (balance factor b_eff / R_max): the b_eff cell
/// (machine key, partition) it plots and its bar label.
struct Fig1Point {
  const char* key;
  int nprocs;
  const char* label;
};

/// Figure 1's membership, declared once: the EXPERIMENTS.md section
/// and bench/paper_views' Figure 1 both plot exactly the b_eff cells
/// listed here that their sweep holds.
const std::vector<Fig1Point>& fig1_points();

/// Figure 1's balance factor of a run b_eff row: b_eff over the
/// partition's Linpack R_max, in bytes per flop.
double balance_factor(const BeffRun& b);

/// Figure 5's value per machine: for each machine of `data`'s "fig5"
/// rows, in order of first appearance, its row with the highest
/// b_eff_io (the earlier row on a tie).
std::vector<const IoRun*> fig5_best_rows(const ExperimentsData& data);

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
  /// built-in document, machine keys resolve scenario-first, the
  /// scenario's fault plan applies when `fault_plan` is null (the CLI
  /// flag wins), and the scenario's fault sweep replaces the built-in
  /// one.  Everything downstream -- journal, records, rendering,
  /// byte-identity across jobs -- behaves exactly as for built-ins.
  const scenario::Scenario* scenario = nullptr;
};

/// The cell lists `options` selects, with empty results, in the
/// pipeline's execution-slot order: the cells of options.scenario, or
/// of the built-in document of options.scope when it is null.  This is
/// what run_experiments() runs; bench/paper_views and balbench-perf
/// take the same rows to subset, label and time.
ExperimentsData sweep_spec(const ExperimentOptions& options);

/// Runs the whole sweep with options.jobs host worker threads and the
/// robustness knobs (fault injection, crash-safe
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
/// fault-sweep row of `data` in place on options.jobs host threads,
/// results in their list slots -- byte-identical for every jobs value.
/// One task per b_eff cell, b_eff_io chain, kernel suite and
/// fault-sweep cell, each in its own simulator; the worker that
/// finishes a row's last task reduces and journals the row.  The lists
/// are taken as given, so a driver may run any subset or edit of the
/// spec rows.  Honours options.verbose (one start/finish pair per
/// row), fault_plan, checkpoint_path/resume/kill_after and the
/// scenario's machines and fault plan.  The journal stays per row,
/// keyed by list index ("beff/i", "io/i", "faultsweep/i").
void run_cells(ExperimentsData& data, const ExperimentOptions& options);

/// FNV-1a (64-bit, hex) of "balbench-scenario-experiments/1
/// scope=<scope>\n" followed by the canonical describe() of `sc`, or
/// of the built-in document of `scope` when `sc` is null: the
/// scenario's own machines, cells, fault plan and fault sweep;
/// registry machines count by key only, their parameters being code
/// that the record's git_rev pins.  Stamped into both outputs so a
/// record can be matched to the configuration that produced it.  A
/// scenario file with the same cells as a built-in sweep hashes like
/// it.
std::string config_hash(Scope scope, const scenario::Scenario* sc);

/// `git rev-parse --short HEAD`, or "unknown" outside a work tree.
/// Provenance only: it goes into the JSON record, never the rendered
/// document (whose bytes must not depend on repository state).
std::string git_revision();

/// JSON run record, schema "balbench-run-record/1" (DESIGN.md
/// Sec. 10.4): provenance, per-run headline bandwidths (bytes per
/// virtual second), per-pattern/-type cell bandwidths, every kernel
/// cell with its derived balance factors (b_eff/R_max, b_eff_io/R_max,
/// STREAM/R_max -- the formulas of docs/METRICS.md), and the merged
/// obs::MetricsSnapshot of every run.
void write_run_record(std::ostream& os, const ExperimentsData& data,
                      const std::string& cfg_hash, const std::string& git_rev);

/// The generated sections of EXPERIMENTS.md, in document order:
/// TABLE 1, FIGURE 1, FIGURE 3, FIGURE 4, FIGURE 5, BALANCE
/// CHARACTERIZATION, FAULT-SCENARIO SWEEPS and SIDE RESULTS.  Every
/// measured number is recomputed from `data`; paper reference values
/// and the comparison markers come from a fixed rule (within 10 % =
/// check mark, within 50 % = approx, otherwise the ratio is printed).
/// A bullet or sentence whose configurations are absent from `data` is
/// left out, never approximated; so is a whole section, which is then
/// returned with empty text.  util::splice_sections puts the sections
/// into a document (removing the empty ones), util::check_sections
/// compares one.
std::vector<util::DocSection> render_experiments_sections(
    const ExperimentsData& data, const std::string& cfg_hash);

}  // namespace balbench::report
