// Machine models for the systems evaluated in the paper.
//
// Each MachineSpec bundles the parameters our substrate needs to stand
// in for one of the paper's platforms: a topology factory for the
// communication network, per-call software costs, memory per process
// (which fixes L_max = mem/128), the published Linpack R_max (for the
// balance factor of Fig. 1), and -- where the paper ran b_eff_io -- an
// I/O subsystem configuration.
//
// Where the parameters come from: headline numbers (ping-pong
// bandwidth, memory sizes, R_max, I/O server counts, RAID striping)
// are taken from the paper and its references; remaining
// microparameters (latencies, per-call overheads, bus capacities) were
// calibrated so the simulated Table 1 / Figs 3-5 reproduce the paper's
// *shape* (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "parmsg/comm.hpp"
#include "pfsim/config.hpp"

namespace balbench::machines {

/// Per-process compute/memory roofline for the simulated HPCC-style
/// kernel suite (core/kernels, DESIGN.md Sec. 14).  All quantities are
/// per *process* (the same granularity as memory_per_proc): on SMP
/// nodes a "process" is one MPI rank's share of the node.
///
/// Provenance mirrors the rest of this file: peak flop rates and cache
/// sizes are published processor specs; sustainable memory bandwidths
/// are STREAM-class figures calibrated so the simulated kernels land
/// in the published R_max / stream neighbourhood (EXPERIMENTS.md
/// "Balance characterization").
struct Roofline {
  /// Dense floating-point peak, flop/s (NOT Linpack R_max — the kernel
  /// suite *measures* its own R_max against this ceiling).
  double peak_flops = 0.0;
  /// Sustainable streaming memory bandwidth, bytes/s (STREAM-class).
  double mem_bw = 0.0;
  /// Last-level cache per process, bytes.  0 = vector/streaming
  /// machine without a data cache: working sets never get the cache
  /// bandwidth boost, but random gathers pipeline at full mem_bw.
  std::int64_t cache_bytes = 0;
  /// Single random memory access latency, seconds (RandomAccess term;
  /// only charged on cache machines — vector gathers pipeline).
  double mem_latency = 0.0;
  /// Interconnect bandwidth one process sees in the kernels'
  /// communication phases, bytes/s (calibrated from ping-pong /
  /// per-process ring figures; shared-memory machines use copy bw).
  double net_bw = 0.0;

  [[nodiscard]] bool valid() const {
    return peak_flops > 0.0 && mem_bw > 0.0 && net_bw > 0.0;
  }
};

struct MachineSpec {
  std::string name;                // "Cray T3E/900-512"
  std::string short_name;          // "t3e" (CLI key)
  int max_procs = 0;
  std::int64_t memory_per_proc = 0;  // bytes
  bool shared_memory = false;
  /// Published Linpack R_max in GFlop/s for a given process count
  /// (linear interpolation on the per-proc value).
  double rmax_gflops_per_proc = 0.0;

  /// Compute/memory model for the simulated kernel suite; valid() on
  /// every registered machine (asserted in tests/machines).
  Roofline roofline;

  parmsg::CommCosts costs;
  std::function<std::unique_ptr<net::Topology>(int nprocs)> make_topology;

  /// I/O subsystem; present for the platforms of Figs. 3-5.
  std::optional<pfsim::IoSystemConfig> io;

  [[nodiscard]] std::int64_t lmax() const {
    // Paper Sec. 4: L_max = min(128 MB, memory per processor / 128).
    const std::int64_t cap = 128LL * 1024 * 1024;
    return std::min(cap, memory_per_proc / 128);
  }
};

/// All systems of Table 1 / Figs 1, 3-5.
MachineSpec cray_t3e_900();
MachineSpec hitachi_sr8000(net::Placement placement);
MachineSpec hitachi_sr2201();
MachineSpec nec_sx5();
MachineSpec nec_sx4();
MachineSpec hp_v9000();
MachineSpec sgi_sv1();
MachineSpec ibm_sp();
/// Commodity Beowulf cluster (switched fast ethernet, NFS-class I/O):
/// not in the paper's Table 1, but the target of its Sec. 6 "Top
/// Clusters" plan -- included to contrast balanced supercomputers with
/// a commodity cluster.
MachineSpec beowulf();

/// Registry access for CLI tools: all machines / lookup by short name.
std::vector<MachineSpec> all_machines();
MachineSpec machine_by_name(const std::string& short_name);

/// Space-separated short names of every registered machine, in
/// registry order ("t3e sr8000rr sr8000 ...").  Generated from
/// all_machines() so CLI help text and error messages can never drift
/// from the registry.
std::string machine_list();

}  // namespace balbench::machines
