// The effective I/O bandwidth benchmark b_eff_io (paper Sec. 5).
//
// For one partition (number of MPI processes) and scheduled time T:
//
//   for each access method (initial write, rewrite, read; T/3 each):
//     for each pattern type 0..4:
//       open the type's file(s); run each pattern of the type for
//       T/3 * U/64 (time-driven, termination decided at rank 0 and
//       broadcast); write access ends with MPI_File_sync; close.
//       b_eff_io(type) = bytes / (t_close - t_open)
//     b_eff_io(access) = average over types, scatter type counted twice
//   b_eff_io(partition) = 0.25 write + 0.25 rewrite + 0.50 read
//
// Types 3/4 (segmented) are size-driven: their repeat counts per chunk
// size come from the type-2 measurements, and the segment size
// L_SEG = roundup(sum l_i * reps_i, 1 MB), capped so that
// nprocs * L_SEG <= 2 GB (paper Sec. 5.4).
//
// The time-driven loops use the batched fast-forward of DESIGN.md
// Sec. 6: a few probe iterations, then macro-steps whose per-call
// costs (client overhead, shared-pointer token sweeps, skipped
// termination checks) are still charged.
//
// Execution model: the benchmark decomposes into independent *chains*
// that honour the data dependencies above -- chain 0 = scatter type
// under every access method, chain 1 = shared type, chain 2 = the
// separate/segmented types (type-2 call counts and L_SEG feed types
// 3/4 of the same method), chain 3 = the random extension.  Each
// chain runs as its own transport session with its own engine and
// file system, so chains may run on concurrent host threads; per-chain
// outputs land in disjoint slots and are reduced in chain order,
// keeping every reported number byte-identical for every schedule --
// see DESIGN.md "Determinism under parallel execution".  ChainSweep
// exposes the chains to schedulers such as report::run_cells.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/beffio/pattern_table.hpp"
#include "parmsg/sim_transport.hpp"
#include "pfsim/config.hpp"
#include "pfsim/filesystem.hpp"
#include "robust/retry.hpp"

namespace balbench::beffio {

enum class AccessMethod { InitialWrite = 0, Rewrite = 1, Read = 2 };
inline constexpr int kNumAccessMethods = 3;
const char* access_method_name(AccessMethod m);

/// How the time-driven loops decide when to stop (paper Sec. 5.4).
enum class TerminationMode {
  /// The released algorithm: the stop criterion is evaluated after
  /// every call (a barrier + broadcast each time); our batched
  /// fast-forward charges that per-call cost for skipped iterations.
  PerIterationCheck,
  /// The paper's proposed improvement: "a geometric series of
  /// increasing repeating factors should be used" -- the repeat count
  /// doubles between checks and no per-iteration cost accrues.
  GeometricSeries,
};

struct BeffIoOptions {
  /// Scheduled benchmark time T in seconds for this partition; the
  /// official benchmark requires T >= 15 min (900 s).
  double scheduled_time = 900.0;
  /// Memory of one node, fixes M_PART = max(2 MB, memory/128).
  std::int64_t memory_per_node = 256LL * 1024 * 1024;
  /// Optional cap on M_PART (reduced chunk size on the SX-5 etc).
  std::int64_t mpart_cap = 0;
  TerminationMode termination = TerminationMode::PerIterationCheck;
  /// Sec. 6 extension: also measure a *random access* pattern type
  /// (non-collective accesses at seeded random offsets).  Reported in
  /// BeffIoResult::random_extension, never part of the average.
  bool include_random_type = false;
  std::uint64_t random_seed = 2001;
  std::string file_prefix = "beffio";

  /// Read by nothing: run_beffio is serial, and report::run_cells
  /// takes its worker count from ExperimentOptions::jobs.  Kept only
  /// because the e2ebench workloads still assign it.
  int jobs = 1;

  /// Collect obs metrics: each chain runs with its own obs::Registry
  /// attached to its transport and file system, and the per-chain
  /// snapshots are merged in chain order into BeffIoResult::metrics.
  /// Deterministic for every jobs value (DESIGN.md Sec. 10.2).
  bool collect_metrics = false;

  /// Deterministic fault plan (robust subsystem; not owned, must
  /// outlive the run).  When set, every chain runs under the plan's
  /// retry policy: a throwing chain is retried with its result slots
  /// reset, a chain that exhausts the budget keeps zeroed slots and
  /// the sweep completes; per-chain outcomes land in
  /// BeffIoResult::chain_status.  nullptr (default) leaves the
  /// execution path byte-identical to the pre-fault code.
  const robust::FaultPlan* fault_plan = nullptr;
};

/// Result of one pattern under one access method.
struct PatternAccessResult {
  IoPattern pattern;
  std::int64_t bytes = 0;        // across all ranks
  double seconds = 0.0;          // barrier-to-barrier pattern duration
  std::int64_t calls = 0;        // I/O calls per rank
  [[nodiscard]] double bandwidth() const {
    return seconds > 0.0 ? static_cast<double>(bytes) / seconds : 0.0;
  }
};

struct TypeAccessResult {
  PatternType type{};
  std::vector<PatternAccessResult> patterns;
  std::int64_t bytes = 0;   // all patterns of this type
  double seconds = 0.0;     // open .. close
  [[nodiscard]] double bandwidth() const {
    return seconds > 0.0 ? static_cast<double>(bytes) / seconds : 0.0;
  }
};

struct AccessMethodResult {
  AccessMethod method{};
  std::array<TypeAccessResult, kNumPatternTypes> types;
  /// Average over pattern types with double weight for the scatter
  /// type (paper Sec. 5.1).
  [[nodiscard]] double weighted_bandwidth() const;
};

struct BeffIoResult {
  int nprocs = 0;
  double scheduled_time = 0.0;
  std::int64_t mpart = 0;
  std::array<AccessMethodResult, kNumAccessMethods> access;
  /// 0.25 * write + 0.25 * rewrite + 0.50 * read.
  double b_eff_io = 0.0;
  /// Sec. 6 extension (include_random_type): random-offset access
  /// bandwidth per access method; informational only.
  std::array<double, kNumAccessMethods> random_extension{};
  double benchmark_seconds = 0.0;  // virtual duration of the whole run
  std::int64_t segment_bytes = 0;  // L_SEG used by types 3/4
  pfsim::FileSystem::Stats fs_stats;

  /// Merged per-chain metric snapshots (parmsg.* / pario.* / pfsim.* /
  /// simt.* taxonomy); empty unless BeffIoOptions::collect_metrics.
  obs::MetricsSnapshot metrics;

  /// Per-chain retry outcomes and session labels, indexed by chain id;
  /// empty unless BeffIoOptions::fault_plan was set (so fault-free
  /// results -- and everything serialized from them -- are unchanged).
  std::vector<robust::CellStatus> chain_status;
  std::vector<std::string> chain_labels;

  /// Worst outcome over chain_status (Ok when faults were disabled).
  [[nodiscard]] robust::Outcome worst_outcome() const {
    robust::Outcome worst = robust::Outcome::Ok;
    for (const auto& s : chain_status) {
      if (static_cast<int>(s.outcome) > static_cast<int>(worst)) {
        worst = s.outcome;
      }
    }
    return worst;
  }

  [[nodiscard]] const AccessMethodResult& write() const { return access[0]; }
  [[nodiscard]] const AccessMethodResult& rewrite() const { return access[1]; }
  [[nodiscard]] const AccessMethodResult& read() const { return access[2]; }
};

/// The chains of one b_eff_io run.  run_chain(c) runs chain c as a
/// fresh session of a transport holding >= nprocs processes, under the
/// fault plan's retry policy if one is set; distinct chains may run on
/// concurrent threads, each on its own transport.  finish() reduces in
/// chain order (paper Sec. 5.1 aggregation).
class ChainSweep {
 public:
  ChainSweep(const pfsim::IoSystemConfig& io_config, int nprocs,
             const BeffIoOptions& options);
  ~ChainSweep();
  ChainSweep(const ChainSweep&) = delete;
  ChainSweep& operator=(const ChainSweep&) = delete;

  [[nodiscard]] int num_chains() const;  // 4 with include_random_type
  [[nodiscard]] static const char* label(int chain);  // e.g. "scatter"
  void run_chain(int chain, parmsg::SimTransport& transport);
  BeffIoResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Run b_eff_io on `nprocs` ranks of the simulated machine with the
/// given I/O subsystem.  Executes the measurement chains serially on
/// the given transport (one session per chain).  report::run_cells
/// spreads the same chains over host threads, a fresh simulator per
/// chain, with byte-identical results.
BeffIoResult run_beffio(parmsg::SimTransport& transport,
                        const pfsim::IoSystemConfig& io_config, int nprocs,
                        const BeffIoOptions& options);

/// Detailed report: per-pattern bandwidth table for each access method
/// (the data behind Fig. 4) plus the aggregation summary.
std::string beffio_report(const BeffIoResult& result);

}  // namespace balbench::beffio
