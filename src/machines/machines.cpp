#include "machines/machines.hpp"

#include <stdexcept>

#include "util/units.hpp"

namespace balbench::machines {

namespace {

using util::kGiB;
using util::kMiB;

/// Bandwidths in the paper's tables are MByte/s with MByte = 2^20.
constexpr double mbps(double v) { return v * static_cast<double>(kMiB); }

}  // namespace

MachineSpec cray_t3e_900() {
  MachineSpec m;
  m.name = "Cray T3E/900-512";
  m.short_name = "t3e";
  m.max_procs = 512;
  m.memory_per_proc = 128 * kMiB;  // L_max = 1 MB as in Table 1
  m.shared_memory = false;
  m.rmax_gflops_per_proc = 0.675;  // 900 MF peak, ~75 % Linpack efficiency

  // Alpha 21164/450: 2 flop/cycle peak, 96 kB on-chip L2 (the T3E has
  // no board cache), stream-buffer memory system ~600 MB/s sustained.
  m.roofline.peak_flops = 900e6;
  m.roofline.mem_bw = mbps(600);
  m.roofline.cache_bytes = 96 * 1024;
  m.roofline.mem_latency = 280e-9;
  m.roofline.net_bw = mbps(330);  // Table 1 ping-pong

  m.costs.send_overhead = 3e-6;
  m.costs.recv_overhead = 3e-6;
  m.costs.alltoallv_base = 5e-6;
  m.costs.alltoallv_per_rank = 0.05e-6;
  // Paper Sec. 5.4: barrier + bcast on 32 PEs ~ 60 us -> ~5 levels.
  m.costs.barrier_hop = 5e-6;
  m.costs.bcast_hop = 6e-6;
  m.costs.reduce_hop = 6e-6;

  m.make_topology = [](int nprocs) {
    net::Torus3DParams p;
    net::torus_dims_for(nprocs, p.dims);
    p.nic_bw = mbps(330);
    p.duplex_factor = 1.25;  // bidirectional load: ~2 x 206 MB/s
    p.link_bw = mbps(360);
    p.base_latency = 14e-6;
    p.per_hop_latency = 0.1e-6;
    p.self_bw = mbps(600);
    return net::make_torus3d(p);
  };

  // tmp-filesystem: 10 striped RAID disks on a GigaRing, ~300 MB/s
  // aggregate peak (paper Sec. 5.2); I/O is a global resource.
  pfsim::IoSystemConfig io;
  io.name = "T3E GigaRing tmp-fs (10 striped RAIDs)";
  io.num_servers = 10;
  io.disks_per_server = 1;
  io.disk.bandwidth = mbps(30);  // 10 x 30 = 300 MB/s aggregate
  io.disk.seek_time = 4e-3;
  io.disk.sequential_threshold = 256 * 1024;
  io.server_bandwidth = mbps(120);
  io.client_link_bw = mbps(180);   // GigaRing client interface
  io.fabric_bandwidth = mbps(900); // shared GigaRing
  io.stripe_unit = 64 * 1024;
  io.block_size = 16 * 1024;
  io.cache_bytes = 3LL * kGiB;     // system buffer cache across nodes
  io.request_overhead = 220e-6;    // ~4 MB/s at 1 kB chunks (paper 5.4)
  io.server_request_overhead = 40e-6;
  io.collective_two_phase = true;
  io.optimized_segmented_collective = true;
  io.shared_pointer_overhead = 150e-6;
  m.io = io;
  return m;
}

MachineSpec hitachi_sr8000(net::Placement placement) {
  const bool rr = placement == net::Placement::RoundRobin;
  MachineSpec m;
  m.name = rr ? "Hitachi SR 8000 round-robin" : "Hitachi SR 8000 sequential";
  m.short_name = rr ? "sr8000rr" : "sr8000";
  m.max_procs = 128;
  m.memory_per_proc = 1 * kGiB;  // L_max = 8 MB
  m.shared_memory = false;
  m.rmax_gflops_per_proc = 0.85;

  // 1 GF per IP, pseudo-vector preload streams past the cache (model
  // as cache-less); ~2 GB/s per-CPU share of the node memory system.
  m.roofline.peak_flops = 1.0e9;
  m.roofline.mem_bw = mbps(2000);
  m.roofline.cache_bytes = 0;
  m.roofline.mem_latency = 200e-9;
  m.roofline.net_bw = rr ? mbps(776) : mbps(954);

  m.costs.send_overhead = 5.0e-6;
  m.costs.recv_overhead = 5.0e-6;
  m.costs.barrier_hop = 8e-6;
  m.costs.bcast_hop = 8e-6;
  m.costs.reduce_hop = 8e-6;

  m.make_topology = [placement](int nprocs) {
    net::SmpClusterParams p;
    p.procs_per_node = 8;
    p.nodes = (nprocs + p.procs_per_node - 1) / p.procs_per_node;
    p.placement = placement;
    p.per_process_copy_bw = mbps(1908);  // intra ping-pong ~954 MB/s
    p.node_memory_bw = mbps(3200);       // seq ring: ~400 MB/s per proc
    p.nic_bw = mbps(776);                // inter ping-pong ~776 MB/s
    p.switch_bw = mbps(12000);           // multidimensional crossbar
    p.intra_latency = 14e-6;
    p.inter_latency = 60e-6;
    return net::make_smp_cluster(p);
  };

  pfsim::IoSystemConfig io;
  io.name = "SR 8000 striped RAID filesystem";
  io.num_servers = 4;
  io.disks_per_server = 4;
  io.disk.bandwidth = mbps(22);
  io.disk.seek_time = 5e-3;
  io.server_bandwidth = mbps(160);
  io.client_link_bw = mbps(300);
  io.fabric_bandwidth = mbps(1200);
  io.stripe_unit = 128 * 1024;
  io.block_size = 32 * 1024;
  io.cache_bytes = 2LL * kGiB;
  io.request_overhead = 250e-6;
  io.server_request_overhead = 50e-6;
  io.collective_two_phase = true;
  io.optimized_segmented_collective = true;
  io.shared_pointer_overhead = 200e-6;
  m.io = io;
  return m;
}

MachineSpec hitachi_sr2201() {
  MachineSpec m;
  m.name = "Hitachi SR 2201";
  m.short_name = "sr2201";
  m.max_procs = 16;
  m.memory_per_proc = 256 * kMiB;  // L_max = 2 MB
  m.shared_memory = false;
  m.rmax_gflops_per_proc = 0.22;

  // 300 MF PA-RISC with pseudo-vector preload; ~300 MB/s per PE.
  m.roofline.peak_flops = 300e6;
  m.roofline.mem_bw = mbps(300);
  m.roofline.cache_bytes = 0;
  m.roofline.mem_latency = 300e-9;
  m.roofline.net_bw = mbps(100);  // calibrated: ring ~96 MB/s per proc

  m.costs.send_overhead = 6e-6;
  m.costs.recv_overhead = 6e-6;
  m.costs.barrier_hop = 10e-6;
  m.costs.bcast_hop = 10e-6;
  m.costs.reduce_hop = 10e-6;

  m.make_topology = [](int nprocs) {
    net::CrossbarParams p;
    p.processes = nprocs;
    p.port_bw = mbps(96);  // ring per-proc ~96 MB/s at L_max
    p.latency_sec = 50e-6;
    return net::make_crossbar(p);
  };
  return m;
}

MachineSpec nec_sx5() {
  MachineSpec m;
  m.name = "NEC SX-5/8B";
  m.short_name = "sx5";
  m.max_procs = 4;
  m.memory_per_proc = 256 * kMiB;  // benchmarked with L_max = 2 MB
  m.shared_memory = true;
  m.rmax_gflops_per_proc = 7.2;

  // 8 GF vector CPU, no data cache, 64 GB/s memory ports per CPU
  // (~41 GB/s STREAM-class sustained).
  m.roofline.peak_flops = 8.0e9;
  m.roofline.mem_bw = mbps(41000);
  m.roofline.cache_bytes = 0;
  m.roofline.mem_latency = 50e-9;
  m.roofline.net_bw = mbps(8762);  // per-proc ring at L_max

  m.costs.send_overhead = 3e-6;
  m.costs.recv_overhead = 3e-6;
  m.costs.barrier_hop = 4e-6;
  m.costs.bcast_hop = 4e-6;
  m.costs.reduce_hop = 4e-6;

  m.make_topology = [](int nprocs) {
    net::SharedMemoryParams p;
    p.processes = nprocs;
    p.per_process_copy_bw = mbps(17524);  // per-proc ring ~8762 MB/s
    p.aggregate_bw = mbps(64000);         // vector memory system
    p.latency_sec = 28e-6;
    return net::make_shared_memory(p);
  };

  // Four striped RAID-3 arrays DS 1200 over fibre channel; SFS with
  // 4 MB cluster size and a large filesystem cache that is only used
  // for requests below 1 MB (paper Sec. 5.3 and 5.4).
  pfsim::IoSystemConfig io;
  io.name = "SX-5 SFS, 4 striped RAID-3 (DS 1200)";
  io.num_servers = 4;
  io.disks_per_server = 1;
  io.disk.bandwidth = mbps(48);
  io.disk.seek_time = 3e-3;
  io.disk.sequential_threshold = 512 * 1024;
  io.server_bandwidth = mbps(95);   // fibre channel per array
  io.client_link_bw = mbps(1200);
  io.fabric_bandwidth = mbps(2400);
  io.stripe_unit = 4 * kMiB;  // SFS cluster size
  io.block_size = 4 * kMiB;
  io.cache_bytes = 2LL * kGiB;  // "2 GB filesystem-cache"
  io.cache_bypass_threshold = 1 * kMiB;  // only requests < 1 MB cached
  io.request_overhead = 180e-6;
  io.server_request_overhead = 30e-6;
  io.collective_two_phase = true;
  io.optimized_segmented_collective = true;
  io.shared_pointer_overhead = 150e-6;
  m.io = io;
  return m;
}

MachineSpec nec_sx4() {
  MachineSpec m;
  m.name = "NEC SX-4/32";
  m.short_name = "sx4";
  m.max_procs = 16;
  m.memory_per_proc = 256 * kMiB;  // L_max = 2 MB
  m.shared_memory = true;
  m.rmax_gflops_per_proc = 1.7;

  // 2 GF vector CPU, cache-less, 16 GB/s memory ports per CPU
  // (~14 GB/s sustained).
  m.roofline.peak_flops = 2.0e9;
  m.roofline.mem_bw = mbps(14000);
  m.roofline.cache_bytes = 0;
  m.roofline.mem_latency = 60e-9;
  m.roofline.net_bw = mbps(3552);

  m.costs.send_overhead = 3e-6;
  m.costs.recv_overhead = 3e-6;

  m.make_topology = [](int nprocs) {
    net::SharedMemoryParams p;
    p.processes = nprocs;
    p.per_process_copy_bw = mbps(7104);  // per-proc ring ~3552 MB/s
    p.aggregate_bw = mbps(50250);        // saturates at 16 procs
    p.latency_sec = 48e-6;
    return net::make_shared_memory(p);
  };
  return m;
}

MachineSpec hp_v9000() {
  MachineSpec m;
  m.name = "HP-V 9000";
  m.short_name = "hpv";
  m.max_procs = 7;
  m.memory_per_proc = 1 * kGiB;  // L_max = 8 MB
  m.shared_memory = true;
  m.rmax_gflops_per_proc = 0.35;

  // V2200-class PA-8200/200: 2 flop/cycle peak, 2 MB off-chip data
  // cache; the shared Runway bus sustains ~480 MB/s per CPU under
  // load.  (The paper's 2.5 GF R_max over 7 CPUs rules out the later
  // PA-8500 V2500.)
  m.roofline.peak_flops = 400e6;
  m.roofline.mem_bw = mbps(480);
  m.roofline.cache_bytes = 2 * 1024 * 1024;
  m.roofline.mem_latency = 400e-9;
  m.roofline.net_bw = mbps(162);  // per-proc ring

  m.costs.send_overhead = 5e-6;
  m.costs.recv_overhead = 5e-6;

  m.make_topology = [](int nprocs) {
    net::SharedMemoryParams p;
    p.processes = nprocs;
    p.per_process_copy_bw = mbps(324);  // per-proc ring ~162 MB/s
    p.aggregate_bw = mbps(2000);
    p.latency_sec = 18e-6;
    return net::make_shared_memory(p);
  };
  return m;
}

MachineSpec sgi_sv1() {
  MachineSpec m;
  m.name = "SGI Cray SV1-B/16-8";
  m.short_name = "sv1";
  m.max_procs = 15;
  m.memory_per_proc = 512 * kMiB;  // L_max = 4 MB
  m.shared_memory = true;
  m.rmax_gflops_per_proc = 0.9;

  // SV1 vector CPU: 1.2 GF peak, 256 kB cache (the first cached Cray
  // vector design), ~1.6 GB/s per CPU from the shared memory system.
  m.roofline.peak_flops = 1.2e9;
  m.roofline.mem_bw = mbps(1600);
  m.roofline.cache_bytes = 256 * 1024;
  m.roofline.mem_latency = 120e-9;
  m.roofline.net_bw = mbps(994);  // ping-pong

  m.costs.send_overhead = 3e-6;
  m.costs.recv_overhead = 3e-6;

  m.make_topology = [](int nprocs) {
    net::SharedMemoryParams p;
    p.processes = nprocs;
    // Ping-pong reaches 994 MB/s (one flow through one port), but the
    // memory system bounds the full ring at ~375 MB/s per process.
    p.per_process_copy_bw = mbps(1988);
    p.aggregate_bw = mbps(5625);
    p.latency_sec = 60e-6;
    return net::make_shared_memory(p);
  };
  return m;
}

MachineSpec ibm_sp() {
  MachineSpec m;
  m.name = "IBM RS 6000/SP (blue Pacific)";
  m.short_name = "sp";
  m.max_procs = 336;  // one I/O thread per node (paper Sec. 5.2)
  m.memory_per_proc = 1536 * kMiB;  // 1.5 GB per node partition share
  m.shared_memory = false;
  m.rmax_gflops_per_proc = 0.9;  // 4 x 332 MHz per node

  // One process per 4-way 332 MHz 604e node: 2.66 GF nominal, but the
  // shared 1.3 GB/s memory bus starves four 604e FPUs -- dense kernels
  // sustain ~1 GF/node (the published 0.9 GF/node Linpack), so the
  // modelled peak is the sustainable node rate, not 4x the chip sheet.
  m.roofline.peak_flops = 1.0e9;
  m.roofline.mem_bw = mbps(1300);
  m.roofline.cache_bytes = 1024 * 1024;
  m.roofline.mem_latency = 350e-9;
  m.roofline.net_bw = mbps(133);  // TB3MX adapter

  m.costs.send_overhead = 4e-6;
  m.costs.recv_overhead = 4e-6;
  m.costs.barrier_hop = 12e-6;
  m.costs.bcast_hop = 12e-6;
  m.costs.reduce_hop = 12e-6;

  m.make_topology = [](int nprocs) {
    // I/O benchmarking uses one MPI process per SMP node, so the
    // communication topology is node-level: TB3MX switch adapters.
    net::SmpClusterParams p;
    p.procs_per_node = 1;
    p.nodes = nprocs;
    p.placement = net::Placement::Sequential;
    p.per_process_copy_bw = mbps(800);
    p.node_memory_bw = mbps(1600);
    p.nic_bw = mbps(133);
    p.switch_bw = mbps(20000);
    p.intra_latency = 8e-6;
    p.inter_latency = 22e-6;
    return net::make_smp_cluster(p);
  };

  // GPFS on blue.llnl.gov: 20 VSD I/O servers; ~950 MB/s max read at
  // 128 nodes, ~690 MB/s max write at 64 nodes (paper Sec. 5.2, [8]).
  // I/O bandwidth tracks the number of client nodes until saturation.
  pfsim::IoSystemConfig io;
  io.name = "GPFS /g/g1, 20 VSD servers";
  io.num_servers = 20;
  io.disks_per_server = 2;
  io.disk.bandwidth = mbps(26);  // 20 x 2 x 26 ~ 1040 MB/s raw
  io.disk.seek_time = 6e-3;
  // GPFS writes cost more than reads (token revocation, replication):
  // ~690 MB/s write vs ~950 MB/s read at saturation (paper ref [8]).
  io.write_penalty = 1.4;
  io.disk.sequential_threshold = 256 * 1024;
  io.server_bandwidth = mbps(48);   // VSD server path: 20 x 48 = 960
  io.client_link_bw = mbps(12);     // per-node GPFS client throughput
  io.fabric_bandwidth = mbps(1400); // SP switch share for I/O
  io.stripe_unit = 256 * 1024;      // GPFS block size
  io.block_size = 256 * 1024;
  io.cache_bytes = 4LL * kGiB;      // pagepool across clients
  io.request_overhead = 300e-6;
  io.server_request_overhead = 60e-6;
  io.collective_two_phase = true;
  // The MPI-I/O prototype optimizes segmented non-collective access
  // but not its collective counterpart (paper Sec. 5.3).
  io.optimized_segmented_collective = false;
  io.shared_pointer_overhead = 250e-6;
  m.io = io;
  return m;
}

MachineSpec beowulf() {
  MachineSpec m;
  m.name = "Beowulf cluster (fast ethernet)";
  m.short_name = "beowulf";
  m.max_procs = 32;
  m.memory_per_proc = 256 * kMiB;  // L_max = 2 MB
  m.shared_memory = false;
  m.rmax_gflops_per_proc = 0.35;  // ~800 MHz commodity CPU

  // 800 MHz commodity CPU: 1 flop/cycle nominal, but PC100-class
  // SDRAM (~350 MB/s STREAM) keeps dense kernels near 450 MF --
  // consistent with the 0.35 GF/proc HPL figure above.  Fast ethernet
  // carries every byte of comm.
  m.roofline.peak_flops = 450e6;
  m.roofline.mem_bw = mbps(350);
  m.roofline.cache_bytes = 256 * 1024;
  m.roofline.mem_latency = 150e-9;
  m.roofline.net_bw = mbps(11);

  m.costs.send_overhead = 15e-6;  // TCP/IP stack
  m.costs.recv_overhead = 15e-6;
  m.costs.barrier_hop = 60e-6;
  m.costs.bcast_hop = 60e-6;
  m.costs.reduce_hop = 60e-6;

  m.make_topology = [](int nprocs) {
    net::SmpClusterParams p;
    p.procs_per_node = 1;
    p.nodes = nprocs;
    p.placement = net::Placement::Sequential;
    p.per_process_copy_bw = mbps(400);
    p.node_memory_bw = mbps(800);
    p.nic_bw = mbps(11);      // 100 Mbit ethernet payload
    p.switch_bw = mbps(180);  // switch backplane
    p.intra_latency = 20e-6;
    p.inter_latency = 120e-6; // TCP round half
    return net::make_smp_cluster(p);
  };

  // Single NFS-class file server with one disk.
  pfsim::IoSystemConfig io;
  io.name = "NFS server, single disk";
  io.num_servers = 1;
  io.disks_per_server = 1;
  io.disk.bandwidth = mbps(25);
  io.disk.seek_time = 9e-3;
  io.disk.sequential_threshold = 128 * 1024;
  io.server_bandwidth = mbps(11);   // the server's own ethernet port
  io.client_link_bw = mbps(11);
  io.fabric_bandwidth = mbps(180);
  io.stripe_unit = 64 * 1024;
  io.block_size = 8 * 1024;
  io.cache_bytes = 256 * kMiB;
  io.request_overhead = 400e-6;     // NFS RPC
  io.server_request_overhead = 150e-6;
  io.collective_two_phase = true;
  io.optimized_segmented_collective = true;
  io.shared_pointer_overhead = 500e-6;
  m.io = io;
  return m;
}

std::vector<MachineSpec> all_machines() {
  std::vector<MachineSpec> v;
  v.push_back(cray_t3e_900());
  v.push_back(hitachi_sr8000(net::Placement::RoundRobin));
  v.push_back(hitachi_sr8000(net::Placement::Sequential));
  v.push_back(hitachi_sr2201());
  v.push_back(nec_sx5());
  v.push_back(nec_sx4());
  v.push_back(hp_v9000());
  v.push_back(sgi_sv1());
  v.push_back(ibm_sp());
  v.push_back(beowulf());
  return v;
}

MachineSpec machine_by_name(const std::string& short_name) {
  // Built once: the report's cell runner resolves a key per cell, and
  // a kernel-suite cell is short enough (tens of microseconds) that
  // building all ten specs per lookup shows in its timing.
  static const std::vector<MachineSpec> registry = all_machines();
  for (const auto& m : registry) {
    if (m.short_name == short_name) return m;
  }
  throw std::invalid_argument("unknown machine '" + short_name + "' (try: " +
                              machine_list() + ")");
}

std::string machine_list() {
  std::string out;
  for (const auto& m : all_machines()) {
    if (!out.empty()) out += ' ';
    out += m.short_name;
  }
  return out;
}

}  // namespace balbench::machines
