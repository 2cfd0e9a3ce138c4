#include "core/serve/service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "core/report/experiments.hpp"
#include "core/scenario/scenario.hpp"
#include "obs/journal.hpp"
#include "robust/fault.hpp"
#include "util/hash.hpp"

namespace balbench::serve {

// ---------------------------------------------------------------------------
// AdmissionQueue

bool AdmissionQueue::try_push(Job job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    // The bound applies to *client* admissions; recovered jobs
    // (conn < 0) were admitted by a previous incarnation and re-enter
    // unconditionally -- a restart must never turn an accepted request
    // into a rejection.
    if (job.conn >= 0 && jobs_.size() >= capacity_) return false;
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
  return true;
}

std::optional<Job> AdmissionQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return closed_ || !jobs_.empty(); });
  if (jobs_.empty()) return std::nullopt;
  Job job = std::move(jobs_.front());
  jobs_.erase(jobs_.begin());
  return job;
}

void AdmissionQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::vector<Job> AdmissionQueue::drain() {
  std::vector<Job> rest;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    rest.swap(jobs_);
  }
  cv_.notify_all();
  return rest;
}

std::size_t AdmissionQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

// ---------------------------------------------------------------------------
// Sweep execution

namespace {

constexpr const char* kQueueKind = "serve-queue";

report::Scope parse_scope(const std::string& s) {
  if (const auto scope = report::parse_scope(s)) return *scope;
  throw std::runtime_error("unknown scope '" + s + "' (quick | doc)");
}

}  // namespace

CacheKey sweep_cache_key(const ServeRequest& req, const std::string& git_rev) {
  const report::Scope scope = parse_scope(req.scope);
  CacheKey key;
  key.git_rev = git_rev;
  if (req.scenario.empty()) {
    key.config_hash = report::config_hash(scope, nullptr);
    key.scenario_hash = "-";
  } else {
    const scenario::Scenario sc = scenario::parse_scenario_text(req.scenario);
    key.config_hash = report::config_hash(scope, &sc);
    // The raw text is hashed in addition to the config hash: two
    // scenario documents that lower to one configuration share the
    // config hash but are still distinct requests on the wire.
    key.scenario_hash = util::fnv1a_hex(req.scenario);
  }
  return key;
}

ServeResponse execute_sweep(const ServeRequest& req,
                            const std::string& git_rev, ResultCache& cache,
                            const ServeConfig& cfg, obs::Registry& reg) {
  ServeResponse resp;
  resp.id = req.id;
  try {
    const report::Scope scope = parse_scope(req.scope);
    scenario::Scenario scenario_storage;
    const scenario::Scenario* scenario_ptr = nullptr;
    if (!req.scenario.empty()) {
      scenario_storage = scenario::parse_scenario_text(req.scenario);
      scenario_ptr = &scenario_storage;
    }
    resp.key = sweep_cache_key(req, git_rev).str();

    // Faults and deadlines change the record bytes (the fault plan's
    // describe() is stamped into it), so those requests bypass the
    // cache entirely -- neither read nor written.
    const bool cacheable = req.faults.empty() && req.deadline_s <= 0.0;

    if (cfg.hold_s > 0.0) {
      // Test hook: keeps this worker busy so smoke tests can fill the
      // admission queue deterministically.
      std::this_thread::sleep_for(
          std::chrono::duration<double>(cfg.hold_s));
    }

    if (cacheable) {
      if (auto hit = cache.lookup(resp.key)) {
        reg.counter("serve.hits").add();
        resp.status = ResponseStatus::Ok;  // only clean runs are cached
        resp.cache = CacheDisposition::Hit;
        resp.record = std::move(*hit);
        return resp;
      }
    }

    robust::FaultPlan plan;
    bool has_plan = false;
    if (!req.faults.empty()) {
      plan = robust::FaultPlan::parse(req.faults);
      has_plan = true;
    }
    if (req.deadline_s > 0.0) {
      // Per-cell virtual-time deadline: a cell that exceeds it is
      // recorded as exhausted (partial cells intact) instead of the
      // sweep hanging.  No retries -- the simulation is deterministic,
      // so a timed-out attempt would time out identically again.
      plan.retry.timeout_s = req.deadline_s;
      if (req.faults.empty()) plan.retry.max_attempts = 1;
      has_plan = true;
    }

    report::ExperimentOptions opt;
    opt.scope = scope;
    opt.jobs = cfg.jobs;
    opt.verbose = cfg.verbose;
    if (has_plan) opt.fault_plan = &plan;
    opt.scenario = scenario_ptr;
    if (cacheable) {
      // Journal the computation under the cache key: if this process
      // dies mid-sweep, the restarted server resumes the same journal
      // and the finished record is byte-identical to an uninterrupted
      // run (checkpoint replay, DESIGN.md Sec. 12.3).
      opt.checkpoint_path = cache.checkpoint_path(resp.key);
      std::error_code ec;
      opt.resume = std::filesystem::exists(opt.checkpoint_path, ec);
      opt.kill_after = cfg.kill_after;
    }

    const report::ExperimentsData data = report::run_experiments(opt);

    const robust::Outcome worst = report::worst_outcome(data);
    switch (worst) {
      case robust::Outcome::Ok: resp.status = ResponseStatus::Ok; break;
      case robust::Outcome::Degraded:
        resp.status = ResponseStatus::Degraded;
        break;
      case robust::Outcome::Failed: resp.status = ResponseStatus::Failed; break;
    }

    std::ostringstream record;
    report::write_run_record(record, data,
                             report::config_hash(scope, scenario_ptr),
                             git_rev);
    resp.record = record.str();
    resp.cache = cacheable ? CacheDisposition::Miss : CacheDisposition::Bypass;
    reg.counter(cacheable ? "serve.misses" : "serve.bypass").add();

    if (cacheable) {
      // Commit order: entry + journal first, checkpoint removal last.
      // A crash before the removal leaves a stale checkpoint next to a
      // committed entry -- harmless, the next identical request is a
      // hit and never opens the journal.
      if (resp.status == ResponseStatus::Ok) {
        cache.store(resp.key, resp.record);
      }
      cache.remove_checkpoint(resp.key);
    }
    return resp;
  } catch (const std::exception& e) {
    reg.counter("serve.errors").add();
    resp.status = ResponseStatus::Error;
    resp.error = e.what();
    resp.record.clear();
    return resp;
  }
}

// ---------------------------------------------------------------------------
// The daemon

namespace {

/// Signal disposition: handlers write one byte to the self-pipe so the
/// poll loop wakes; everything else happens on the loop thread.
std::atomic<int> g_signal_pipe{-1};

extern "C" void serve_signal_handler(int) {
  const int fd = g_signal_pipe.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// One client connection.  The worker thread may still hold a
/// reference after the event loop dropped the connection, so the fd is
/// guarded: send() and close() serialize on the mutex and send() on a
/// closed connection is a silent no-op (never a write to a reused fd).
struct Conn {
  int fd = -1;
  bool open = true;
  std::string inbuf;
  std::mutex write_mutex;

  /// Writes `line` plus the '\n' frame delimiter, polling through
  /// short writes (the fd is non-blocking and a record response can
  /// exceed the socket buffer).
  void send_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (!open) return;
    std::string frame = line;
    frame += '\n';
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        struct pollfd p{};
        p.fd = fd;
        p.events = POLLOUT;
        if (::poll(&p, 1, 10000) <= 0) break;  // peer wedged: drop it
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // peer gone; the poll loop will reap the fd
    }
  }

  void close_fd() {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (open) {
      open = false;
      ::close(fd);
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Drain queue

std::string queue_file_path(const std::string& cache_path) {
  return cache_path + ".queue.json";
}

void persist_queue(const std::string& path, const std::vector<Job>& jobs) {
  obs::JournalWriter journal(kQueueKind, "");
  // Each request rides as its own wire line (a string value): the
  // reload path re-parses it with the exact validation a socket line
  // gets.  Keys are admission ordinals.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    journal.add(std::to_string(i),
                '"' + obs::json_escape(write_request(jobs[i].req)) + '"');
  }
  journal.commit(path);
}

std::vector<ServeRequest> load_queue(const std::string& path) {
  std::vector<ServeRequest> requests;
  obs::read_journal(path, kQueueKind, "",
                    [&](const std::string&, const obs::JsonValue& line) {
                      requests.push_back(parse_request(line.as_string()));
                    });
  return requests;
}

// ---------------------------------------------------------------------------
// Service

Service::Service(ServeConfig cfg) : cfg_(std::move(cfg)) {}

int Service::run() {
  obs::Registry reg;
  ResultCache cache(cfg_.cache_path);
  int listen_fd = -1;
  int sig_pipe[2] = {-1, -1};
  try {
    const ResultCache::OpenStats opened = cache.open();
    reg.counter("serve.quarantined").add(opened.quarantined);
    reg.counter("serve.orphans").add(opened.orphans);
    if (cfg_.verbose) {
      std::cerr << "balbench-serve: cache " << cfg_.cache_path << ": "
                << opened.entries << " entries";
      if (opened.quarantined > 0 || opened.orphans > 0) {
        std::cerr << ", quarantined " << opened.quarantined << ", orphans "
                  << opened.orphans;
      }
      std::cerr << '\n';
    }

    const std::string git_rev = report::git_revision();
    AdmissionQueue queue(cfg_.queue_depth);

    // Re-admit the queue a drained predecessor persisted.  The file is
    // removed only after all jobs are in; a crash in between just
    // re-runs them -- sweeps are idempotent through the cache.
    const std::string qpath = queue_file_path(cfg_.cache_path);
    const std::vector<ServeRequest> recovered = load_queue(qpath);
    for (const auto& req : recovered) {
      Job job;
      job.req = req;
      job.conn = -1;
      queue.try_push(std::move(job));  // unbounded for recovered jobs
      reg.counter("serve.recovered").add();
      reg.gauge("serve.queue_depth").add(1.0);
    }
    if (!recovered.empty()) {
      std::error_code ec;
      std::filesystem::remove(qpath, ec);
      if (cfg_.verbose) {
        std::cerr << "balbench-serve: recovered " << recovered.size()
                  << " queued request(s) from " << qpath << '\n';
      }
    }

    // --- socket + signal plumbing --------------------------------------
    struct sockaddr_un addr{};
    if (cfg_.socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long (max " +
                               std::to_string(sizeof(addr.sun_path) - 1) +
                               " bytes): " + cfg_.socket_path);
    }
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) throw std::runtime_error("socket(2) failed");
    ::unlink(cfg_.socket_path.c_str());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, cfg_.socket_path.c_str(),
                cfg_.socket_path.size() + 1);
    if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw std::runtime_error("cannot bind " + cfg_.socket_path + ": " +
                               std::strerror(errno));
    }
    if (::listen(listen_fd, 16) != 0) {
      throw std::runtime_error("listen(2) failed on " + cfg_.socket_path);
    }
    set_nonblocking(listen_fd);

    if (::pipe(sig_pipe) != 0) throw std::runtime_error("pipe(2) failed");
    set_nonblocking(sig_pipe[0]);
    set_nonblocking(sig_pipe[1]);
    g_signal_pipe.store(sig_pipe[1], std::memory_order_relaxed);
    ::signal(SIGTERM, serve_signal_handler);
    ::signal(SIGINT, serve_signal_handler);
    ::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill us

    if (cfg_.verbose) {
      std::cerr << "balbench-serve: listening on " << cfg_.socket_path
                << " (queue depth " << cfg_.queue_depth << ", jobs "
                << cfg_.jobs << ")\n";
    }

    // --- worker --------------------------------------------------------
    std::mutex conns_mutex;
    std::map<int, std::shared_ptr<Conn>> conns;  // token -> connection
    auto conn_for = [&](int token) -> std::shared_ptr<Conn> {
      std::lock_guard<std::mutex> lock(conns_mutex);
      const auto it = conns.find(token);
      return it == conns.end() ? nullptr : it->second;
    };

    std::thread worker([&] {
      while (auto job = queue.pop()) {
        reg.gauge("serve.queue_depth").add(-1.0);
        const ServeResponse resp =
            execute_sweep(job->req, git_rev, cache, cfg_, reg);
        if (job->conn >= 0) {
          if (const auto conn = conn_for(job->conn)) {
            conn->send_line(write_response(resp));
          }
        }
      }
    });

    // --- event loop ----------------------------------------------------
    bool draining = false;
    int next_token = 0;

    auto answer = [&](const std::shared_ptr<Conn>& conn,
                      const ServeResponse& resp) {
      conn->send_line(write_response(resp));
    };

    auto handle_line = [&](int token, const std::shared_ptr<Conn>& conn,
                           const std::string& line) {
      reg.counter("serve.requests").add();
      ServeRequest req;
      try {
        req = parse_request(line);
      } catch (const std::exception& e) {
        reg.counter("serve.bad_requests").add();
        ServeResponse resp;
        resp.status = ResponseStatus::Error;
        resp.error = e.what();
        answer(conn, resp);
        return;
      }
      switch (req.kind) {
        case RequestKind::Ping: {
          ServeResponse resp;
          resp.id = req.id;
          resp.status = ResponseStatus::Ok;
          answer(conn, resp);
          return;
        }
        case RequestKind::Stats: {
          ServeResponse resp;
          resp.id = req.id;
          resp.status = ResponseStatus::Ok;
          const obs::MetricsSnapshot snap = reg.snapshot();
          for (const auto& [name, v] : snap.counters) {
            resp.stats[name] = static_cast<double>(v);
          }
          for (const auto& [name, v] : snap.gauges) resp.stats[name] = v;
          resp.stats["serve.cache_entries"] =
              static_cast<double>(cache.size());
          resp.stats["serve.queue_capacity"] =
              static_cast<double>(queue.capacity());
          answer(conn, resp);
          return;
        }
        case RequestKind::Shutdown: {
          ServeResponse resp;
          resp.id = req.id;
          resp.status = ResponseStatus::Ok;
          answer(conn, resp);
          draining = true;
          return;
        }
        case RequestKind::Sweep:
          break;
      }
      const std::string req_id = req.id;
      Job job;
      job.req = std::move(req);
      job.conn = token;
      if (draining || !queue.try_push(std::move(job))) {
        // Admission control: reject NOW with an explicit status
        // instead of queueing unbounded latency.  Ordering contract
        // (unit-tested on AdmissionQueue): admissions are FIFO and a
        // rejection never overtakes an earlier admission.
        reg.counter("serve.rejected").add();
        ServeResponse resp;
        resp.id = req_id;
        resp.status = ResponseStatus::Overloaded;
        resp.error = draining ? "server is draining"
                              : "admission queue full (depth " +
                                    std::to_string(queue.capacity()) + ")";
        answer(conn, resp);
        return;
      }
      reg.counter("serve.admitted").add();
      reg.gauge("serve.queue_depth").add(1.0);
    };

    while (!draining) {
      std::vector<struct pollfd> fds;
      std::vector<int> tokens;  // parallel to fds[2..]
      fds.push_back({sig_pipe[0], POLLIN, 0});
      fds.push_back({listen_fd, POLLIN, 0});
      {
        std::lock_guard<std::mutex> lock(conns_mutex);
        for (const auto& [token, conn] : conns) {
          fds.push_back({conn->fd, POLLIN, 0});
          tokens.push_back(token);
        }
      }
      const int rc = ::poll(fds.data(), fds.size(), -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("poll(2) failed");
      }
      if ((fds[0].revents & POLLIN) != 0) {
        char buf[64];
        while (::read(sig_pipe[0], buf, sizeof buf) > 0) {
        }
        draining = true;
        if (cfg_.verbose) {
          std::cerr << "balbench-serve: signal received, draining\n";
        }
        break;
      }
      if ((fds[1].revents & POLLIN) != 0) {
        for (;;) {
          const int client = ::accept(listen_fd, nullptr, nullptr);
          if (client < 0) break;
          set_nonblocking(client);
          auto conn = std::make_shared<Conn>();
          conn->fd = client;
          std::lock_guard<std::mutex> lock(conns_mutex);
          conns.emplace(next_token++, std::move(conn));
        }
      }
      for (std::size_t i = 2; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const int token = tokens[i - 2];
        const auto conn = conn_for(token);
        if (!conn) continue;
        bool gone = false;
        char buf[4096];
        for (;;) {
          const ssize_t n = ::read(conn->fd, buf, sizeof buf);
          if (n > 0) {
            conn->inbuf.append(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          gone = true;  // EOF or hard error
          break;
        }
        std::size_t start = 0;
        for (std::size_t nl = conn->inbuf.find('\n', start);
             nl != std::string::npos && !draining;
             nl = conn->inbuf.find('\n', start)) {
          const std::string line = conn->inbuf.substr(start, nl - start);
          start = nl + 1;
          if (!line.empty()) handle_line(token, conn, line);
        }
        conn->inbuf.erase(0, start);
        if (gone) {
          conn->close_fd();
          std::lock_guard<std::mutex> lock(conns_mutex);
          conns.erase(token);
        }
      }
    }

    // --- drain ---------------------------------------------------------
    ::close(listen_fd);
    listen_fd = -1;
    const std::vector<Job> leftover = queue.drain();
    if (!leftover.empty()) {
      persist_queue(qpath, leftover);
      if (cfg_.verbose) {
        std::cerr << "balbench-serve: persisted " << leftover.size()
                  << " queued request(s) to " << qpath << '\n';
      }
    }
    worker.join();  // the in-flight sweep finishes and answers
    {
      std::lock_guard<std::mutex> lock(conns_mutex);
      for (const auto& [token, conn] : conns) conn->close_fd();
      conns.clear();
    }
    g_signal_pipe.store(-1, std::memory_order_relaxed);
    ::close(sig_pipe[0]);
    ::close(sig_pipe[1]);
    ::unlink(cfg_.socket_path.c_str());
    if (cfg_.verbose) std::cerr << "balbench-serve: drained, exiting\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "balbench-serve: " << e.what() << '\n';
    if (listen_fd >= 0) ::close(listen_fd);
    g_signal_pipe.store(-1, std::memory_order_relaxed);
    if (sig_pipe[0] >= 0) ::close(sig_pipe[0]);
    if (sig_pipe[1] >= 0) ::close(sig_pipe[1]);
    return 1;
  }
}

}  // namespace balbench::serve
