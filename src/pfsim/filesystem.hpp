// Virtual-time parallel filesystem simulator.
//
// Models the I/O substrate the paper's b_eff_io runs on: striped I/O
// servers behind a network fabric, per-server disk queues with seek
// costs and read-modify-write penalties for unaligned access, and a
// write-back buffer cache.  All timing flows through the same
// simt::Engine as the communication simulation, so a rank's I/O and
// message passing share one virtual clock.
//
// Mechanisms and the paper effects they produce:
//  * striping + per-server disk queues  -> aggregate disk bandwidth,
//    T3E "I/O is a global resource" flatness vs. SP per-client scaling
//    (client links are the SP bottleneck).
//  * seek cost for small/discontiguous chunks -> the chunk-size slopes
//    of Fig. 4.
//  * RMW for non-block-aligned requests -> the "+8 byte" penalty.
//  * write-back cache with bounded backlog -> writes absorb at network
//    speed until the cache fills, then throttle to disk drain rate;
//    sync() waits for the backlog; rereads of recently written data
//    are served from cache (the T=10 vs 30 min effect of Sec. 5.4).
//
// Requests carry a chunk count: `chunks` back-to-back accesses of
// `bytes/chunks` each.  This lets the benchmark driver batch a whole
// time-driven loop into one submission (per-chunk seeks and overheads
// are still charged) -- the deterministic fast-forward of DESIGN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pfsim/config.hpp"
#include "simt/engine.hpp"

namespace balbench::net {
class Topology;
class FlowNetwork;
}  // namespace balbench::net

namespace balbench::obs {
class Counter;
class Gauge;
class Registry;
class Sum;
}  // namespace balbench::obs

namespace balbench::robust {
class SessionInjector;
}  // namespace balbench::robust

namespace balbench::pfsim {

/// Striped split of [offset, offset + bytes) over `servers` servers
/// with `stripe_unit`-byte stripes, stripe k on server k % servers:
/// per_server[s] is set to the bytes server s holds.  O(servers), in
/// closed form (the head's partial stripe, whole stripe cycles, the
/// tail), whatever the range's length.
void split_by_server(std::int64_t offset, std::int64_t bytes, std::int64_t stripe_unit,
                     int servers, std::vector<std::int64_t>& per_server);

using FileId = int;

class FileSystem {
 public:
  /// `num_clients` fixes the client side of the I/O fabric; client ids
  /// passed in requests must be < num_clients.
  FileSystem(simt::Engine& engine, IoSystemConfig config, int num_clients);
  ~FileSystem();

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  /// Opens (creating if necessary) a file by name.
  FileId open(const std::string& name);
  /// Drops a file and its cached state.
  void remove(const std::string& name);
  /// Resets a file's length to zero (MPI_MODE_CREATE reopen).
  void truncate(FileId file);

  struct Request {
    int client = 0;
    FileId file = 0;
    std::int64_t offset = 0;    // first byte
    std::int64_t bytes = 0;     // total payload
    std::int64_t chunks = 1;    // back-to-back accesses of bytes/chunks
    bool write = true;
    /// Request produced by a collective two-phase aggregator: counts
    /// as one large aligned access at the servers.
    bool aggregated = false;
  };

  /// Asynchronous submit; `done` fires at the virtual completion time
  /// (for writes: data accepted into cache / throttled by the cache;
  /// for reads: data delivered to the client).
  void submit(const Request& req, std::function<void()> done);

  /// Fires `done` once every byte previously written to `file` is on
  /// disk (MPI_File_sync is weaker in the standard -- see Sec. 5.4 of
  /// the paper -- but the benchmark relies on this stronger behavior).
  /// Only writes whose submit() completion has fired are covered;
  /// call it after the writes return, as a blocking writer does.
  void sync(FileId file, std::function<void()> done);

  [[nodiscard]] std::int64_t file_size(FileId file) const;
  [[nodiscard]] const IoSystemConfig& config() const { return config_; }
  [[nodiscard]] int num_clients() const { return num_clients_; }

  struct Stats {
    std::int64_t requests = 0;
    std::int64_t bytes_written = 0;
    std::int64_t bytes_read = 0;
    std::int64_t read_cache_hits = 0;    // chunks served from cache
    std::int64_t read_cache_misses = 0;  // chunks served from disk
    std::int64_t rmw_chunks = 0;         // chunk/stripe units paying RMW
    double seeks = 0;                    // disk repositionings (amortized)
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Attaches a metrics registry (not owned; nullptr detaches): every
  /// Stats increment is mirrored into `pfsim.*` metrics, and the disk
  /// backlog (deepest server queue, in virtual seconds) feeds the
  /// `pfsim.backlog_seconds` gauge plus -- when the registry has
  /// sampling enabled -- timestamped samples for the Chrome trace.
  /// All quantities are simulated, so run records stay deterministic.
  void set_metrics(obs::Registry* registry);

  /// Adds the I/O fabric's flow-solver totals to the attached registry
  /// (no-op when none is): `pfsim.fabric_flow_resolves`,
  /// `pfsim.fabric_fill_rounds`, `pfsim.fabric_fill_visits`,
  /// `pfsim.fabric_fill_resets` and `pfsim.fabric_rate_changes`, the
  /// fabric's counterparts of the transport's `net.flow_*` counters.
  /// Call once, at session end.
  void report_fabric_totals();

  /// Attaches the current session's fault injector (not owned; nullptr
  /// detaches -- the default, with zero behavioral change).  With an
  /// injector attached, submit() consults it once per request: an
  /// injected transient error throws robust::InjectedFault from the
  /// calling rank's fiber before any filesystem state changes; an
  /// injected latency spike delays the request's completion callback
  /// by the plan's spike length in virtual time.
  void set_fault_injector(robust::SessionInjector* injector) {
    injector_ = injector;
  }

 private:
  struct FileState;
  struct ServerState;

  /// Disk service time for a server-side portion of a request.
  /// `contiguous`: the request continues its client's stream in the
  /// file (seek costs amortize to one per coalescing unit).
  double disk_work(ServerState& server, const Request& req,
                   std::int64_t server_bytes, bool contiguous, bool is_write);

  simt::Engine& engine_;
  IoSystemConfig config_;
  int num_clients_;

  std::unique_ptr<net::Topology> fabric_;
  std::unique_ptr<net::FlowNetwork> flows_;

  /// Records the current deepest server backlog into the gauge/samples.
  void note_backlog();

  std::vector<std::unique_ptr<FileState>> files_;
  std::vector<ServerState> servers_;
  std::vector<std::int64_t> per_server_;  // submit's split, scratch
  std::int64_t global_clock_ = 0;  // cumulative traffic bytes (cache aging)
  Stats stats_;
  robust::SessionInjector* injector_ = nullptr;

  // Metric handles resolved once in set_metrics (see obs/metrics.hpp).
  obs::Registry* registry_ = nullptr;
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_bytes_written_ = nullptr;
  obs::Counter* m_bytes_read_ = nullptr;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Counter* m_rmw_chunks_ = nullptr;
  obs::Sum* m_seeks_ = nullptr;
  obs::Gauge* m_backlog_ = nullptr;
};

}  // namespace balbench::pfsim
