// The effective bandwidth benchmark b_eff (paper Sec. 4).
//
// Definition (normative, from the paper):
//
//   b_eff = logavg( logavg_ringpat ( sum_L( max_mthd( max_rep b ))/21 ),
//                   logavg_randompat( sum_L( max_mthd( max_rep b ))/21 ) )
//   b(pat, L, mthd, rep) = L * messages(pat) * looplength
//                          / max over processes of loop execution time
//
// 21 message sizes (sizes.hpp), 6 ring + 6 random patterns
// (patterns.hpp), three communication methods (MPI_Sendrecv-style,
// MPI_Alltoallv-style, nonblocking Isend/Irecv/Waitall), three
// repetitions, looplength 300 for the shortest message adapted to keep
// each loop between 2.5 and 5 ms.
//
// The driver is an ordinary SPMD program over parmsg::Comm and runs on
// either transport.  On the (deterministic) simulation transport,
// loops are fast-forwarded: the body executes once and virtual time
// advances by the remaining iterations -- see DESIGN.md Sec. 6.
//
// Execution model: the measurement space decomposes into independent
// *cells* -- one per (pattern, method) with the 21 sizes swept inside
// (the looplength adaptation chains through the sizes), plus one per
// analysis pattern.  Every cell runs as its own transport session with
// its own simt::Engine, so cells share no simulator state and may run
// on concurrent host threads.  Results land in slots indexed by cell
// id and are reduced in index order, which makes every reported number
// byte-identical for every schedule -- see DESIGN.md "Determinism
// under parallel execution".  CellSweep exposes the cells to
// schedulers such as report::run_cells.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/beff/patterns.hpp"
#include "obs/metrics.hpp"
#include "parmsg/comm.hpp"
#include "robust/retry.hpp"

namespace balbench::beff {

enum class Method { Sendrecv = 0, Alltoallv = 1, Nonblocking = 2 };
inline constexpr int kNumMethods = 3;
const char* method_name(Method m);

struct BeffOptions {
  /// Memory per process in bytes; fixes L_max = min(128 MB, mem/128).
  std::int64_t memory_per_proc = 128 * 1024 * 1024;
  /// Overrides the L_max rule when nonzero.
  std::int64_t lmax_override = 0;

  std::uint64_t random_seed = 2001;
  int repetitions = 3;
  int start_looplength = 300;       // paper: 300 for the shortest message

  /// Execute each timing loop once and advance virtual time for the
  /// remaining iterations.  Only valid on a deterministic transport
  /// (simulation); set false on the thread transport.
  bool fast_forward = true;
  /// Reuse the first repetition's result for all repetitions
  /// (deterministic transports measure identical values anyway).
  bool dedupe_repetitions = true;
  /// Also measure the analysis-only patterns (ping-pong, worst-case
  /// cycle, bisections, Cartesian halos).
  bool measure_analysis = true;

  /// Read by nothing: run_beff is serial, and report::run_cells takes
  /// its worker count from ExperimentOptions::jobs.  Kept only because
  /// the e2ebench workloads still assign it.
  int jobs = 1;

  /// Collect obs metrics: each cell runs with its own obs::Registry
  /// attached to its transport, and the per-cell snapshots are merged
  /// in cell-index order into BeffResult::metrics.  Because every
  /// recorded quantity is simulated (DESIGN.md Sec. 10.2) the merged
  /// snapshot is byte-identical for every jobs value.
  bool collect_metrics = false;

  /// Deterministic fault plan (robust subsystem; not owned, must
  /// outlive the run).  When set, every cell runs under the plan's
  /// retry policy: a throwing cell is retried with a reset slot, a
  /// cell that exhausts the budget keeps a zeroed slot and the sweep
  /// completes; per-cell outcomes land in BeffResult::cell_status.
  /// nullptr (default) leaves the execution path byte-identical to the
  /// pre-fault code.
  const robust::FaultPlan* fault_plan = nullptr;
};

/// Bandwidth of one pattern at one message size.
struct SizeMeasurement {
  std::int64_t size = 0;
  std::array<double, kNumMethods> method_bw{};  // max over repetitions
  double best_bw = 0.0;                          // max over methods
  int looplength = 0;                            // used for the best method
};

struct PatternMeasurement {
  std::string name;
  bool is_random = false;
  std::vector<SizeMeasurement> sizes;
  double avg_bw = 0.0;   // sum over sizes / 21
  double bw_at_lmax = 0.0;
};

/// Analysis-only patterns (not part of the average, paper Sec. 4).
struct AnalysisResults {
  double pingpong_bw = 0.0;           // rank 0 <-> 1 at L_max
  double worst_cycle_bw = 0.0;        // one ring, maximally distant order
  double bisection_paired_bw = 0.0;   // halves exchange, i <-> i+P/2
  double bisection_interleaved_bw = 0.0;  // even <-> odd pairing
  std::vector<int> cart2d_dims;
  std::vector<double> cart2d_per_dim_bw;
  double cart2d_combined_bw = 0.0;
  std::vector<int> cart3d_dims;
  std::vector<double> cart3d_per_dim_bw;
  double cart3d_combined_bw = 0.0;
};

struct BeffResult {
  int nprocs = 0;
  std::int64_t lmax = 0;
  std::vector<std::int64_t> sizes;
  std::vector<PatternMeasurement> patterns;  // 6 ring then 6 random

  double b_eff = 0.0;
  double rings_logavg = 0.0;
  double random_logavg = 0.0;
  double b_eff_at_lmax = 0.0;
  double rings_logavg_at_lmax = 0.0;
  double random_logavg_at_lmax = 0.0;

  AnalysisResults analysis;

  /// Virtual duration of the whole benchmark (the paper budgets
  /// 3-5 minutes of machine time).
  double benchmark_seconds = 0.0;

  /// Merged per-cell metric snapshots (parmsg.* / simt.* taxonomy);
  /// empty unless BeffOptions::collect_metrics was set.
  obs::MetricsSnapshot metrics;

  /// Per-cell retry outcomes and session labels, indexed by cell id;
  /// empty unless BeffOptions::fault_plan was set (so fault-free
  /// results -- and everything serialized from them -- are unchanged).
  std::vector<robust::CellStatus> cell_status;
  std::vector<std::string> cell_labels;

  /// Worst outcome over cell_status (Ok when faults were disabled).
  [[nodiscard]] robust::Outcome worst_outcome() const {
    robust::Outcome worst = robust::Outcome::Ok;
    for (const auto& s : cell_status) {
      if (static_cast<int>(s.outcome) > static_cast<int>(worst)) {
        worst = s.outcome;
      }
    }
    return worst;
  }

  [[nodiscard]] double per_proc() const { return b_eff / nprocs; }
  [[nodiscard]] double per_proc_at_lmax() const { return b_eff_at_lmax / nprocs; }
  [[nodiscard]] double per_proc_at_lmax_rings() const {
    return rings_logavg_at_lmax / nprocs;
  }
  /// Coffee-cup metric: seconds to communicate the total memory.
  [[nodiscard]] double seconds_for_total_memory(std::int64_t mem_per_proc) const {
    return static_cast<double>(mem_per_proc) * nprocs / b_eff;
  }
};

/// The b_eff cells of one partition.  run_cell(i) runs cell i as a
/// fresh session of a transport holding >= nprocs processes, under the
/// fault plan's retry policy if one is set; distinct cells may run on
/// concurrent threads, each on its own transport.  finish() reduces
/// the slots in index order (paper Sec. 4 aggregation).
class CellSweep {
 public:
  CellSweep(int nprocs, const BeffOptions& options);
  ~CellSweep();
  CellSweep(const CellSweep&) = delete;
  CellSweep& operator=(const CellSweep&) = delete;

  [[nodiscard]] std::size_t num_cells() const;
  /// e.g. "random-512/Sendrecv" or "ping-pong".
  [[nodiscard]] const std::string& label(std::size_t i) const;
  void run_cell(std::size_t i, parmsg::Transport& transport);
  BeffResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Run the full benchmark on `nprocs` processes of `transport`.
/// Executes the measurement cells serially on the given transport
/// (one session per cell).  report::run_cells spreads the same cells
/// over host threads, a fresh simulator per cell, with byte-identical
/// results.
BeffResult run_beff(parmsg::Transport& transport, int nprocs,
                    const BeffOptions& options);

/// Detailed protocol report ("all measured patterns are reported in the
/// benchmark protocol", paper Sec. 4).
std::string protocol_report(const BeffResult& result);

}  // namespace balbench::beff
