// balbench-serve: the sweep service and its client (DESIGN.md
// Sec. 17, README "Running balbench as a service").
//
// Server (the default):
//
//   balbench-serve --socket SOCK --cache CACHE.json [--jobs N]
//                  [--queue-depth K] [--verbose]
//
// listens on the AF_UNIX socket, answers ping/stats/sweep/shutdown
// requests (schemas balbench-serve-request/1 and -response/1, one JSON
// line each), memoizes clean sweep results in a durable cache, and
// drains gracefully on SIGTERM/SIGINT (in-flight finishes, queued
// requests persist to CACHE.json.queue.json).  SIGKILL loses nothing:
// the cache journal replays on restart and interrupted sweeps resume
// from their checkpoint journals.
//
// Client:
//
//   balbench-serve --client --socket SOCK [--scope quick|doc]
//                  [--scenario FILE] [--faults SPEC] [--deadline S]
//                  [--record-out FILE] [--retries N]
//   balbench-serve --client --socket SOCK --ping | --stats | --shutdown
//
// sends one request and exits with the response's status code.  When
// the server is absent or dies mid-request the client reconnects on
// the capped exponential util::Backoff curve (the same schedule the
// retry layer bookkeeps in virtual time, here slept for real) up to
// --retries attempts -- re-sending is safe because sweep requests are
// idempotent through the cache.
//
// Exit codes: 0 = ok, 3 = sweep completed with degraded/failed cells,
// 4 = rejected by admission control (overloaded), 1 = error,
// 2 = usage.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>

#include "core/serve/protocol.hpp"
#include "core/serve/service.hpp"
#include "util/atomic_write.hpp"
#include "util/backoff.hpp"
#include "util/options.hpp"

namespace {

using namespace balbench;

/// One connect/send/receive round trip.  Throws on any socket-level
/// failure (no server, server died mid-response); the caller retries.
serve::ServeResponse round_trip(const std::string& socket_path,
                                const std::string& request_line) {
  struct sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(2) failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("cannot connect to " + socket_path + ": " +
                             std::strerror(err));
  }
  std::string frame = request_line;
  frame += '\n';
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("request write failed");
    }
    off += static_cast<std::size_t>(n);
  }
  std::string line;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("connection closed before a response line");
    }
    line.append(buf, static_cast<std::size_t>(n));
    const std::size_t nl = line.find('\n');
    if (nl != std::string::npos) {
      line.resize(nl);
      break;
    }
  }
  ::close(fd);
  return serve::parse_response(line);
}

}  // namespace

int main(int argc, char** argv) {
  bool client = false;
  bool ping = false;
  bool stats = false;
  bool shutdown = false;
  bool verbose = false;
  std::string socket_path;
  std::string cache_path = "SERVE_CACHE.json";
  std::string id;
  std::string scope = "quick";
  std::string scenario_path;
  std::string faults;
  std::string record_out;
  double deadline_s = 0.0;
  std::int64_t jobs = 1;
  std::int64_t queue_depth = 8;
  std::int64_t retries = 8;
  double backoff_base_s = 0.25;
  double backoff_cap_s = 8.0;
  double hold_s = 0.0;
  std::int64_t kill_after = 0;

  util::Options opt(
      "balbench-serve: crash-safe sweep service over a local socket with a "
      "durable result cache (server), and its one-request client "
      "(--client).\n"
      "Exit codes: 0 = ok, 3 = degraded/failed cells, 4 = overloaded, "
      "1 = error, 2 = usage.");
  opt.add_string("socket", &socket_path,
                 "AF_UNIX socket path the server listens on / the client "
                 "connects to (required)");
  opt.add_flag("client", &client,
               "client mode: send one request, print the response record to "
               "stdout (or --record-out), exit with the status code");
  opt.add_string("cache", &cache_path,
                 "server: result-cache index file; entries live in "
                 "<cache>.entries/, the persisted queue in "
                 "<cache>.queue.json");
  opt.add_jobs(&jobs, "server: one sweep's cells");
  opt.add_int("queue-depth", &queue_depth,
              "server: admission-queue bound; further sweep requests are "
              "rejected with status=overloaded");
  opt.add_flag("verbose", &verbose, "server: log lifecycle lines to stderr");
  opt.add_double("hold-s", &hold_s,
                 "server (test hook): hold each sweep for this many wall "
                 "seconds before running it");
  opt.add_int("kill-after", &kill_after,
              "server (test hook): SIGKILL after N newly checkpointed sweep "
              "tasks, simulating a mid-flight crash");
  opt.add_string("id", &id, "client: correlation id echoed in the response");
  opt.add_string("scope", &scope, "client: sweep scope, quick | doc");
  opt.add_string("scenario", &scenario_path,
                 "client: balbench-scenario/1 file, sent inline (the server "
                 "never reads client paths)");
  opt.add_string("faults", &faults,
                 "client: --faults spec forwarded to the sweep (bypasses the "
                 "result cache)");
  opt.add_double("deadline", &deadline_s,
                 "client: per-cell virtual-time deadline in seconds; "
                 "exhausted cells are recorded instead of hanging (bypasses "
                 "the cache)");
  opt.add_string("record-out", &record_out,
                 "client: write the response's run record to FILE instead of "
                 "stdout");
  opt.add_flag("ping", &ping, "client: liveness probe");
  opt.add_flag("stats", &stats,
               "client: print the server's serve.* metrics, one 'name value' "
               "line each");
  opt.add_flag("shutdown", &shutdown,
               "client: ask the server to drain gracefully");
  opt.add_int("retries", &retries,
              "client: reconnect attempts before giving up");
  opt.add_double("backoff-base", &backoff_base_s,
                 "client: first reconnect delay, seconds");
  opt.add_double("backoff-cap", &backoff_cap_s,
                 "client: reconnect delay ceiling, seconds");

  try {
    if (!opt.parse(argc, argv)) return 0;
    if (socket_path.empty()) {
      std::cerr << "balbench-serve: --socket is required\n";
      return 2;
    }

    if (!client) {
      serve::ServeConfig cfg;
      cfg.socket_path = socket_path;
      cfg.cache_path = cache_path;
      cfg.jobs = static_cast<int>(jobs);
      cfg.queue_depth =
          queue_depth < 0 ? 0 : static_cast<std::size_t>(queue_depth);
      cfg.hold_s = hold_s;
      cfg.kill_after = static_cast<int>(kill_after);
      cfg.verbose = verbose;
      return serve::Service(cfg).run();
    }

    // --- client -------------------------------------------------------
    serve::ServeRequest req;
    req.id = id;
    if (ping) {
      req.kind = serve::RequestKind::Ping;
    } else if (stats) {
      req.kind = serve::RequestKind::Stats;
    } else if (shutdown) {
      req.kind = serve::RequestKind::Shutdown;
    } else {
      req.kind = serve::RequestKind::Sweep;
      req.scope = scope;
      req.faults = faults;
      req.deadline_s = deadline_s;
      if (!scenario_path.empty()) {
        try {
          req.scenario = util::read_file(scenario_path);
        } catch (const std::runtime_error& e) {
          std::cerr << "balbench-serve: " << e.what() << '\n';
          return 2;
        }
      }
    }
    const std::string line = serve::write_request(req);

    const util::Backoff backoff{backoff_base_s, backoff_cap_s};
    const int budget = retries < 1 ? 1 : static_cast<int>(retries);
    serve::ServeResponse resp;
    bool have_resp = false;
    for (int attempt = 1; attempt <= budget; ++attempt) {
      try {
        resp = round_trip(socket_path, line);
        have_resp = true;
        break;
      } catch (const std::exception& e) {
        if (attempt == budget) {
          std::cerr << "balbench-serve: " << e.what() << " (gave up after "
                    << budget << " attempts)\n";
          return 1;
        }
        const double delay = backoff.delay_for(attempt);
        std::cerr << "balbench-serve: " << e.what() << "; retry in " << delay
                  << " s\n";
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      }
    }
    if (!have_resp) return 1;

    if (resp.status == serve::ResponseStatus::Error && !resp.error.empty()) {
      std::cerr << "balbench-serve: server: " << resp.error << '\n';
    }
    if (stats) {
      for (const auto& [name, value] : resp.stats) {
        std::cout << name << ' ' << value << '\n';
      }
    } else if (!resp.record.empty()) {
      util::write_output(record_out.empty() ? "-" : record_out, resp.record);
    }
    if (verbose || !record_out.empty()) {
      std::cerr << "balbench-serve: status "
                << serve::status_name(resp.status) << ", cache "
                << serve::cache_name(resp.cache) << '\n';
    }
    return serve::status_exit_code(resp.status);
  } catch (const std::invalid_argument& e) {
    std::cerr << "balbench-serve: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "balbench-serve: " << e.what() << '\n';
    return 1;
  }
}
