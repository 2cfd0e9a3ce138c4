#include "pfsim/filesystem.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "net/flow.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "robust/fault.hpp"

namespace balbench::pfsim {

namespace {

/// I/O fabric: clients [0, C) and servers [C, C+S) joined by a shared
/// fabric link.  Client and server ports are duplex-shared (send and
/// receive traffic compete), which is what GigaRing/SP switch adapters
/// behave like under mixed read/write load.
class IoFabricTopology final : public net::Topology {
 public:
  IoFabricTopology(int clients, int servers, const IoSystemConfig& cfg)
      : clients_(clients), servers_(servers), latency_(cfg.fabric_latency) {
    for (int i = 0; i < clients; ++i) {
      links_.push_back({"client" + std::to_string(i), cfg.client_link_bw});
    }
    for (int j = 0; j < servers; ++j) {
      links_.push_back({"server" + std::to_string(j), cfg.server_bandwidth});
    }
    fabric_ = static_cast<net::LinkId>(links_.size());
    links_.push_back({"fabric", cfg.fabric_bandwidth});
  }

  int num_endpoints() const override { return clients_ + servers_; }
  const std::vector<net::Link>& links() const override { return links_; }

  void route(int src, int dst, std::vector<net::LinkId>& out) const override {
    out.clear();
    if (src == dst) return;
    out.push_back(src);  // port of src endpoint (client or server)
    out.push_back(fabric_);
    out.push_back(dst);
  }

  double latency(int, int) const override { return latency_; }
  double self_bandwidth() const override { return 4e9; }

  std::string describe() const override {
    std::ostringstream oss;
    oss << "I/O fabric: " << clients_ << " clients, " << servers_ << " servers";
    return oss.str();
  }

 private:
  int clients_;
  int servers_;
  double latency_;
  net::LinkId fabric_ = 0;
  std::vector<net::Link> links_;
};

}  // namespace

struct FileSystem::FileState {
  std::string name;
  std::int64_t size = 0;               // highest byte ever written
  double last_disk_completion = 0.0;   // for sync()
  // Per-client append stream positions for sequentiality detection.
  std::map<int, std::int64_t> client_streams;
  // Cache residency (global LRU approximation): the file region ending
  // at tail_end was touched when the global traffic clock stood at
  // tail_clock; every byte of traffic since then evicts one byte.
  std::int64_t tail_end = 0;
  std::int64_t tail_clock = 0;
};

struct FileSystem::ServerState {
  double busy_until = 0.0;  // disk queue horizon
};

FileSystem::FileSystem(simt::Engine& engine, IoSystemConfig config, int num_clients)
    : engine_(engine), config_(std::move(config)), num_clients_(num_clients) {
  if (num_clients < 1) throw std::invalid_argument("FileSystem: need >= 1 client");
  if (config_.num_servers < 1) throw std::invalid_argument("FileSystem: need >= 1 server");
  fabric_ = std::make_unique<IoFabricTopology>(num_clients, config_.num_servers, config_);
  flows_ = std::make_unique<net::FlowNetwork>(*fabric_, engine_);
  servers_.resize(static_cast<std::size_t>(config_.num_servers));
}

FileSystem::~FileSystem() = default;

void FileSystem::set_metrics(obs::Registry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    m_requests_ = m_bytes_written_ = m_bytes_read_ = nullptr;
    m_cache_hits_ = m_cache_misses_ = m_rmw_chunks_ = nullptr;
    m_seeks_ = nullptr;
    m_backlog_ = nullptr;
    return;
  }
  m_requests_ = &registry->counter("pfsim.requests");
  m_bytes_written_ = &registry->counter("pfsim.bytes_written");
  m_bytes_read_ = &registry->counter("pfsim.bytes_read");
  m_cache_hits_ = &registry->counter("pfsim.read_cache_hit_chunks");
  m_cache_misses_ = &registry->counter("pfsim.read_cache_miss_chunks");
  m_rmw_chunks_ = &registry->counter("pfsim.rmw_chunks");
  m_seeks_ = &registry->sum("pfsim.seeks");
  m_backlog_ = &registry->gauge("pfsim.backlog_seconds");
}

void FileSystem::report_fabric_totals() {
  if (registry_ == nullptr) return;
  // Sampled once, like the transport's engine and flow totals: the
  // fabric's FlowNetwork must not depend on obs.
  registry_->counter("pfsim.fabric_flow_resolves").add(flows_->resolves());
  registry_->counter("pfsim.fabric_fill_rounds").add(flows_->fill_rounds());
  registry_->counter("pfsim.fabric_fill_visits").add(flows_->fill_visits());
  registry_->counter("pfsim.fabric_fill_resets").add(flows_->fill_resets());
  registry_->counter("pfsim.fabric_rate_changes").add(flows_->rate_changes());
}

void FileSystem::note_backlog() {
  if (m_backlog_ == nullptr) return;
  double backlog = 0.0;
  for (const ServerState& s : servers_) {
    backlog = std::max(backlog, s.busy_until - engine_.now());
  }
  m_backlog_->set_max(backlog);
  registry_->sample("pfsim.backlog_seconds", engine_.now(), backlog);
}

FileId FileSystem::open(const std::string& name) {
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i] && files_[i]->name == name) return static_cast<FileId>(i);
  }
  auto f = std::make_unique<FileState>();
  f->name = name;
  files_.push_back(std::move(f));
  return static_cast<FileId>(files_.size() - 1);
}

void FileSystem::truncate(FileId file) {
  const auto idx = static_cast<std::size_t>(file);
  if (idx >= files_.size() || !files_[idx]) {
    throw std::out_of_range("FileSystem::truncate: bad file id");
  }
  files_[idx]->size = 0;
}

void FileSystem::remove(const std::string& name) {
  for (auto& f : files_) {
    if (f && f->name == name) f.reset();
  }
}

std::int64_t FileSystem::file_size(FileId file) const {
  const auto idx = static_cast<std::size_t>(file);
  if (idx >= files_.size() || !files_[idx]) {
    throw std::out_of_range("FileSystem::file_size: bad file id");
  }
  return files_[idx]->size;
}

void split_by_server(std::int64_t offset, std::int64_t bytes, std::int64_t stripe_unit,
                     int servers, std::vector<std::int64_t>& per_server) {
  per_server.assign(static_cast<std::size_t>(servers), 0);
  if (bytes <= 0) return;
  const auto server_of = [&](std::int64_t stripe) {
    return static_cast<std::size_t>(stripe % servers);
  };
  const std::int64_t first = offset / stripe_unit;
  const std::int64_t last = (offset + bytes - 1) / stripe_unit;
  if (first == last) {
    per_server[server_of(first)] = bytes;
    return;
  }
  // The head's partial stripe, the tail's, and the whole stripes
  // between them: every server gets `cycles` of those, and the `extra`
  // servers from the one after the head's get one more.
  per_server[server_of(first)] += (first + 1) * stripe_unit - offset;
  per_server[server_of(last)] += offset + bytes - last * stripe_unit;
  const std::int64_t whole = last - first - 1;
  const std::int64_t cycles = whole / servers;
  const std::int64_t extra = whole % servers;
  for (std::int64_t i = 0; i < servers; ++i) {
    per_server[server_of(first + 1 + i)] +=
        (cycles + (i < extra ? 1 : 0)) * stripe_unit;
  }
}

double FileSystem::disk_work(ServerState& /*server*/, const Request& req,
                             std::int64_t server_bytes, bool contiguous,
                             bool is_write) {
  const std::int64_t chunk =
      req.chunks > 0 ? std::max<std::int64_t>(1, req.bytes / req.chunks) : req.bytes;
  double rate = static_cast<double>(config_.disks_per_server) * config_.disk.bandwidth;
  if (is_write && config_.write_penalty > 1.0) rate /= config_.write_penalty;

  double work = 0.0;
  std::int64_t extra_bytes = 0;

  // The write-back cache coalesces a sequential stream of small chunks
  // into filesystem blocks before draining (GPFS write-behind style);
  // sequential read misses are served with block-granular read-ahead.
  // The cache-bypass path sees the raw chunk size.
  const bool bypass = config_.cache_bypass_threshold > 0 &&
                      chunk >= config_.cache_bypass_threshold;
  const std::int64_t unit =
      req.aggregated ? std::max<std::int64_t>(server_bytes, 1)
                     : (bypass ? chunk : std::max(chunk, config_.block_size));

  // Amortized repositioning: one seek per coalescing unit drained plus
  // one for breaking the stream.  A contiguous small request inside a
  // stream pays only its fractional share.
  double seeks = contiguous ? 0.0 : 1.0;
  if (unit < config_.disk.sequential_threshold) {
    seeks += static_cast<double>(server_bytes) / static_cast<double>(unit);
  }

  // Non-wellformed (+8 byte) accesses: unaligned datatype handling in
  // the I/O library costs per chunk, and each striping boundary inside
  // a chunk leaves a partial block to read-modify-write.
  // Wellformed chunks either tile a block exactly (block % chunk == 0)
  // or span whole blocks (chunk % block == 0); everything else (the
  // "+8 byte" sizes) straddles block boundaries on every access.
  const std::int64_t blk = config_.block_size;
  const bool aligned = req.offset % std::min(blk, chunk) == 0 &&
                       (chunk % blk == 0 || blk % chunk == 0);
  if (is_write && !aligned) {
    // Aggregated (two-phase) data is contiguous: the original chunk
    // boundaries are gone, only striping boundaries can straddle.
    const std::int64_t span =
        req.aggregated ? config_.stripe_unit
                       : std::max<std::int64_t>(1, std::min(chunk, config_.stripe_unit));
    const double chunks_here =
        req.aggregated ? 1.0
                       : static_cast<double>(server_bytes) /
                             static_cast<double>(std::max<std::int64_t>(chunk, 1));
    work += chunks_here * config_.unaligned_overhead;
    const std::int64_t rmw_events =
        std::max<std::int64_t>(1, server_bytes / std::max<std::int64_t>(1, span));
    extra_bytes += rmw_events * config_.block_size;
    work += 0.25 * config_.disk.seek_time * static_cast<double>(rmw_events);
    stats_.rmw_chunks += rmw_events;
    if (m_rmw_chunks_ != nullptr) {
      m_rmw_chunks_->add(static_cast<std::uint64_t>(rmw_events));
    }
  }

  stats_.seeks += seeks;
  if (m_seeks_ != nullptr) m_seeks_->add(seeks);
  work += seeks * config_.disk.seek_time;
  work += static_cast<double>(server_bytes + extra_bytes) / rate;
  work += static_cast<double>(std::max<std::int64_t>(1, (server_bytes + unit - 1) / unit)) *
          config_.server_request_overhead;
  return work;
}

void FileSystem::submit(const Request& req, std::function<void()> done) {
  const auto fidx = static_cast<std::size_t>(req.file);
  if (fidx >= files_.size() || !files_[fidx]) {
    throw std::out_of_range("FileSystem::submit: bad file id");
  }
  if (req.client < 0 || req.client >= num_clients_) {
    throw std::out_of_range("FileSystem::submit: bad client id");
  }
  if (req.bytes <= 0 || req.chunks <= 0) {
    throw std::invalid_argument("FileSystem::submit: bytes and chunks must be > 0");
  }

  // Fault injection (robust subsystem): one decision per request, in
  // the deterministic fiber order of the session.  A transient error
  // throws *before* any filesystem state changes, so a retried attempt
  // starts from a consistent stream/cache picture; a latency spike
  // rides on the completion callback.
  if (injector_ != nullptr) {
    const auto fault = injector_->next_io();
    if (fault.error) {
      throw robust::InjectedFault(
          "injected transient I/O error (client " + std::to_string(req.client) +
          ", " + (req.write ? "write" : "read") + " of " +
          std::to_string(req.bytes) + " bytes)");
    }
    if (fault.spike_s > 0.0) {
      done = [this, spike = fault.spike_s, inner = std::move(done)]() mutable {
        engine_.schedule_after(spike, std::move(inner));
      };
    }
  }

  FileState& file = *files_[fidx];

  // Stream contiguity: does this request continue the client's last
  // access to this file?
  auto stream = file.client_streams.find(req.client);
  const bool contiguous =
      stream != file.client_streams.end() && stream->second == req.offset;
  file.client_streams[req.client] = req.offset + req.bytes;

  // Advance the global traffic clock and refresh this file's resident
  // tail (both reads and writes allocate into the cache).
  global_clock_ += req.bytes;
  if (req.offset + req.bytes >= file.tail_end) {
    file.tail_end = req.offset + req.bytes;
    file.tail_clock = global_clock_;
  }

  ++stats_.requests;
  (req.write ? stats_.bytes_written : stats_.bytes_read) += req.bytes;
  if (m_requests_ != nullptr) {
    m_requests_->add(1);
    (req.write ? m_bytes_written_ : m_bytes_read_)
        ->add(static_cast<std::uint64_t>(req.bytes));
  }

  split_by_server(req.offset, req.bytes, config_.stripe_unit, config_.num_servers,
                  per_server_);
  const std::vector<std::int64_t>& per_server = per_server_;

  const std::int64_t chunk = std::max<std::int64_t>(1, req.bytes / req.chunks);
  const bool bypass = config_.cache_bypass_threshold > 0 &&
                      chunk >= config_.cache_bypass_threshold;
  const double drain_rate =
      static_cast<double>(config_.disks_per_server) * config_.disk.bandwidth;
  const double cache_allowance =
      static_cast<double>(config_.cache_bytes) /
      static_cast<double>(config_.num_servers) / drain_rate;

  // Shared completion tracker across the striped parts.
  struct Pending {
    int remaining = 0;
    double done_at = 0.0;
    std::function<void()> done;
  };
  auto pending = std::make_shared<Pending>();
  pending->done = std::move(done);
  for (std::int64_t b : per_server) {
    if (b > 0) ++pending->remaining;
  }
  assert(pending->remaining > 0);

  auto finish_part = [this, pending](double at) {
    pending->done_at = std::max(pending->done_at, at);
    if (--pending->remaining == 0) {
      engine_.schedule_at(std::max(pending->done_at, engine_.now()),
                          [pending] { pending->done(); });
    }
  };

  if (req.write) {
    file.size = std::max(file.size, req.offset + req.bytes);
    // Data streams client -> server, then queues for the disks; the
    // write "completes" once the cache has admitted it (bounded
    // backlog), or after full disk service when the cache is bypassed.
    for (int s = 0; s < config_.num_servers; ++s) {
      const std::int64_t b = per_server[static_cast<std::size_t>(s)];
      if (b == 0) continue;
      flows_->start_flow(
          req.client, num_clients_ + s, static_cast<double>(b),
          [this, s, req, b, bypass, cache_allowance, contiguous, &file,
           finish_part](simt::Time now) {
            ServerState& server = servers_[static_cast<std::size_t>(s)];
            const double w = disk_work(server, req, b, contiguous, true);
            server.busy_until = std::max(server.busy_until, now) + w;
            file.last_disk_completion =
                std::max(file.last_disk_completion, server.busy_until);
            const double done_at =
                bypass ? server.busy_until
                       : std::max(now, server.busy_until - cache_allowance);
            note_backlog();
            finish_part(done_at);
          });
    }
    return;
  }

  // Read: cache hit if the requested range lies inside the still
  // resident window behind the file's most recently touched region.
  // The window shrinks by one byte for every byte of traffic (to any
  // file) since then -- a global LRU approximation, so many files
  // sharing one cache age each other out (the paper's Sec. 5.4 cache
  // discussion and the T = 10 vs 30 min effect).
  const std::int64_t aged = global_clock_ - file.tail_clock;
  const std::int64_t window =
      std::max<std::int64_t>(0, config_.cache_bytes - aged);
  const bool hit = !bypass && window > 0 && req.offset + req.bytes <= file.tail_end &&
                   req.offset >= file.tail_end - window;
  (hit ? stats_.read_cache_hits : stats_.read_cache_misses) += req.chunks;
  if (m_cache_hits_ != nullptr) {
    (hit ? m_cache_hits_ : m_cache_misses_)
        ->add(static_cast<std::uint64_t>(req.chunks));
  }

  for (int s = 0; s < config_.num_servers; ++s) {
    const std::int64_t b = per_server[static_cast<std::size_t>(s)];
    if (b == 0) continue;
    auto start_network = [this, s, req, b, finish_part](double at) {
      engine_.schedule_at(std::max(at, engine_.now()), [this, s, req, b,
                                                        finish_part] {
        flows_->start_flow(num_clients_ + s, req.client, static_cast<double>(b),
                           [finish_part](simt::Time t) { finish_part(t); });
      });
    };
    ServerState& server = servers_[static_cast<std::size_t>(s)];
    if (hit) {
      // Serve from the buffer cache: memory-speed at the server, only
      // the network path is charged.
      start_network(engine_.now());
    } else {
      const double w = disk_work(server, req, b, contiguous, false);
      server.busy_until = std::max(server.busy_until, engine_.now()) + w;
      note_backlog();
      start_network(server.busy_until);
    }
  }
}

void FileSystem::sync(FileId file, std::function<void()> done) {
  const auto fidx = static_cast<std::size_t>(file);
  if (fidx >= files_.size() || !files_[fidx]) {
    throw std::out_of_range("FileSystem::sync: bad file id");
  }
  const double at = std::max(files_[fidx]->last_disk_completion, engine_.now());
  engine_.schedule_at(at, std::move(done));
}

}  // namespace balbench::pfsim
