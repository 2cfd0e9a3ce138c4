#include "parmsg/sim_transport.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <list>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "parmsg/request_state.hpp"
#include "robust/fault.hpp"

namespace balbench::parmsg {

namespace {

int tree_depth(int nprocs) {
  int depth = 0;
  int reach = 1;
  while (reach < nprocs) {
    reach *= 2;
    ++depth;
  }
  return depth;
}

}  // namespace

// ---------------------------------------------------------------------------
// Run-scoped shared state
// ---------------------------------------------------------------------------

struct SimRun {
  SimRun(const net::Topology& topo, const CommCosts& c, int np)
      : costs(c), nprocs(np), flows(topo, engine), mailboxes(static_cast<std::size_t>(np)) {}

  struct Arrival {
    std::vector<char> data;  // empty for timing-only messages
    std::size_t n = 0;
  };
  struct PendingRecv {
    int src = 0;
    int tag = 0;
    void* buf = nullptr;
    std::size_t n = 0;
    std::shared_ptr<detail::RequestState> req;
  };
  struct Mailbox {
    // key: (src, tag) -> FIFO of arrivals (MPI ordering per channel).
    std::map<std::pair<int, int>, std::list<Arrival>> arrived;
    std::list<PendingRecv> pending;
  };

  /// Synchronizing collective: ranks check in; when the last arrives,
  /// `finish` runs (fills output slots) and everyone wakes after the
  /// modelled tree cost.
  struct CollectiveState {
    int arrived = 0;
    std::vector<simt::Process*> waiting;
  };

  void deliver(int dst, int src, int tag, Arrival arrival) {
    Mailbox& box = mailboxes[static_cast<std::size_t>(dst)];
    for (auto it = box.pending.begin(); it != box.pending.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        if (it->buf != nullptr && !arrival.data.empty()) {
          std::memcpy(it->buf, arrival.data.data(), std::min(it->n, arrival.n));
        }
        auto req = it->req;
        box.pending.erase(it);
        req->done = true;
        if (req->sim_waiter != nullptr) req->sim_waiter->wake();
        return;
      }
    }
    box.arrived[{src, tag}].push_back(std::move(arrival));
  }

  /// Metric handles resolved once per run (registration takes the
  /// registry mutex; the per-call increments are wait-free atomics).
  /// All quantities are virtual-time / simulated -- safe for run
  /// records under the determinism invariant of DESIGN.md Sec. 10.2.
  struct Metrics {
    obs::Counter* msgs_sent = nullptr;        // parmsg.msgs_sent
    obs::Counter* bytes_sent = nullptr;       // parmsg.bytes_sent (simulated bytes)
    obs::Counter* barriers = nullptr;         // parmsg.barrier_calls
    obs::Counter* bcasts = nullptr;           // parmsg.bcast_calls
    obs::Counter* reduces = nullptr;          // parmsg.allreduce_calls
    obs::Counter* alltoallvs = nullptr;       // parmsg.alltoallv_calls
    obs::Histogram* wait_seconds = nullptr;    // parmsg.wait_seconds (virtual)
    obs::Histogram* barrier_seconds = nullptr; // parmsg.barrier_seconds (virtual)
    obs::Sum* compute_seconds = nullptr;       // parmsg.compute_seconds (virtual)
  };

  void attach_metrics(obs::Registry* r) {
    registry = r;
    if (r == nullptr) return;
    metrics.msgs_sent = &r->counter("parmsg.msgs_sent");
    metrics.bytes_sent = &r->counter("parmsg.bytes_sent");
    metrics.barriers = &r->counter("parmsg.barrier_calls");
    metrics.bcasts = &r->counter("parmsg.bcast_calls");
    metrics.reduces = &r->counter("parmsg.allreduce_calls");
    metrics.alltoallvs = &r->counter("parmsg.alltoallv_calls");
    metrics.wait_seconds = &r->histogram("parmsg.wait_seconds");
    metrics.barrier_seconds = &r->histogram("parmsg.barrier_seconds");
    metrics.compute_seconds = &r->sum("parmsg.compute_seconds");
  }

  simt::Engine engine;
  const CommCosts& costs;
  int nprocs;
  robust::SessionInjector* injector = nullptr;  // owned by the transport
  simt::Tracer* tracer = nullptr;
  obs::Registry* registry = nullptr;
  Metrics metrics;
  net::FlowNetwork flows;
  std::vector<Mailbox> mailboxes;

  CollectiveState barrier_state;
  CollectiveState bcast_state;
  std::vector<char> bcast_data;
  std::vector<std::pair<void*, std::size_t>> bcast_sinks;
  CollectiveState reduce_state;
  std::vector<double> reduce_contrib;
  std::vector<double> reduce_result;  // per-rank output slot

  std::vector<std::unique_ptr<SimComm>> comms;
};

// ---------------------------------------------------------------------------
// SimComm
// ---------------------------------------------------------------------------

SimComm::SimComm(SimRun& run, int rank, simt::Process& proc)
    : run_(run), rank_(rank), proc_(proc) {}

int SimComm::rank() const { return rank_; }
int SimComm::size() const { return run_.nprocs; }
double SimComm::wtime() { return run_.engine.now(); }
simt::Engine& SimComm::engine() { return run_.engine; }
simt::Tracer* SimComm::tracer() const { return run_.tracer; }
obs::Registry* SimComm::metrics() const { return run_.registry; }

void SimComm::advance(double dt) {
  const double t0 = run_.engine.now();
  proc_.sleep(dt);
  if (run_.tracer != nullptr) {
    run_.tracer->record(t0, run_.engine.now(), rank_, 'c');
  }
  if (run_.metrics.compute_seconds != nullptr) {
    run_.metrics.compute_seconds->add(run_.engine.now() - t0);
  }
}

Request SimComm::isend(int dst, const void* buf, std::size_t n, int tag) {
  if (dst < 0 || dst >= run_.nprocs) {
    throw std::out_of_range("isend: bad destination rank");
  }
  proc_.sleep(run_.costs.send_overhead);
  if (run_.metrics.msgs_sent != nullptr) {
    run_.metrics.msgs_sent->add(1);
    run_.metrics.bytes_sent->add(n);
  }

  SimRun::Arrival arrival;
  arrival.n = n;
  if (buf != nullptr && n > 0) {
    arrival.data.assign(static_cast<const char*>(buf),
                        static_cast<const char*>(buf) + n);
  }
  auto req = std::make_shared<detail::RequestState>();
  SimRun* run = &run_;
  const int src = rank_;

  // Fault injection (robust subsystem): a stalled message starts its
  // flow late, a degraded link stretches the flow by inflating its
  // byte count (1/factor).  One next_send() decision per isend, drawn
  // in deterministic fiber order; without an injector this block
  // compiles down to the original direct start_flow.
  double flow_bytes = static_cast<double>(n);
  double stall_s = 0.0;
  if (run_.injector != nullptr) {
    // Windowed and node-drop faults are gated on the current virtual
    // time and the (src, dst) pair; a drop throws InjectedFault out of
    // the sending fiber, failing the attempt like an I/O error does.
    const auto fault = run_.injector->next_send(run_.engine.now(), src, dst);
    stall_s = fault.stall_s;
    if (fault.degrade_factor < 1.0) flow_bytes /= fault.degrade_factor;
  }
  auto deliver = [run, dst, src, tag,
                  arrival = std::move(arrival)](simt::Time) mutable {
    run->deliver(dst, src, tag, std::move(arrival));
  };
  if (stall_s > 0.0) {
    run_.engine.schedule_after(
        stall_s, [run, src, dst, flow_bytes, deliver = std::move(deliver)]() mutable {
          run->flows.start_flow(src, dst, flow_bytes, std::move(deliver));
        });
  } else {
    run_.flows.start_flow(rank_, dst, flow_bytes, std::move(deliver));
  }
  // The send buffer was captured, so the send completes locally as
  // soon as the call overhead has been charged (buffered-send
  // semantics); pattern timing is carried by the matching receives.
  req->done = true;
  return make_request(req);
}

Request SimComm::irecv(int src, void* buf, std::size_t n, int tag) {
  if (src < 0 || src >= run_.nprocs) {
    throw std::out_of_range("irecv: bad source rank");
  }
  proc_.sleep(run_.costs.recv_overhead);

  auto req = std::make_shared<detail::RequestState>();
  SimRun::Mailbox& box = run_.mailboxes[static_cast<std::size_t>(rank_)];
  auto it = box.arrived.find({src, tag});
  if (it != box.arrived.end() && !it->second.empty()) {
    SimRun::Arrival& a = it->second.front();
    if (buf != nullptr && !a.data.empty()) {
      std::memcpy(buf, a.data.data(), std::min(n, a.n));
    }
    it->second.pop_front();
    if (it->second.empty()) box.arrived.erase(it);
    req->done = true;
    return make_request(req);
  }
  box.pending.push_back(SimRun::PendingRecv{src, tag, buf, n, req});
  return make_request(req);
}

void SimComm::wait(Request& req) {
  if (!req.valid()) return;
  auto st = state_of(req);
  const double t0 = run_.engine.now();
  bool blocked = false;
  while (!st->done) {
    assert(st->sim_waiter == nullptr && "two waiters on one request");
    st->sim_waiter = &proc_;
    proc_.block();
    st->sim_waiter = nullptr;
    blocked = true;
  }
  if (blocked) {
    if (run_.tracer != nullptr) {
      run_.tracer->record(t0, run_.engine.now(), rank_, 'w');
    }
    if (run_.metrics.wait_seconds != nullptr) {
      run_.metrics.wait_seconds->observe(run_.engine.now() - t0);
    }
  }
}

void SimComm::barrier() {
  const double t_enter = run_.engine.now();
  auto& st = run_.barrier_state;
  st.waiting.push_back(&proc_);
  if (++st.arrived == run_.nprocs) {
    const double cost = tree_depth(run_.nprocs) * run_.costs.barrier_hop;
    auto waiters = std::move(st.waiting);
    st.waiting.clear();
    st.arrived = 0;
    run_.engine.schedule_after(cost, [waiters = std::move(waiters)] {
      for (auto* w : waiters) w->wake();
    });
  }
  proc_.block();
  if (run_.tracer != nullptr) {
    run_.tracer->record(t_enter, run_.engine.now(), rank_, 'b');
  }
  if (run_.metrics.barriers != nullptr) {
    run_.metrics.barriers->add(1);
    run_.metrics.barrier_seconds->observe(run_.engine.now() - t_enter);
  }
}

void SimComm::bcast(void* buf, std::size_t n, int root) {
  if (run_.metrics.bcasts != nullptr) run_.metrics.bcasts->add(1);
  auto& st = run_.bcast_state;
  if (st.arrived == 0) {
    run_.bcast_sinks.clear();
    run_.bcast_data.clear();
  }
  st.waiting.push_back(&proc_);
  if (rank_ == root && buf != nullptr && n > 0) {
    run_.bcast_data.assign(static_cast<char*>(buf), static_cast<char*>(buf) + n);
  } else if (rank_ != root && buf != nullptr) {
    run_.bcast_sinks.emplace_back(buf, n);
  }
  if (++st.arrived == run_.nprocs) {
    // Binomial-tree cost: depth hops, payload streamed along each hop.
    const int depth = tree_depth(run_.nprocs);
    const double payload =
        static_cast<double>(n) /
        run_.flows.topology().self_bandwidth() * static_cast<double>(depth);
    const double cost = depth * run_.costs.bcast_hop + payload;
    auto waiters = std::move(st.waiting);
    st.waiting.clear();
    st.arrived = 0;
    SimRun* run = &run_;
    run_.engine.schedule_after(cost, [run, waiters = std::move(waiters)] {
      for (auto& [sink, len] : run->bcast_sinks) {
        if (!run->bcast_data.empty()) {
          std::memcpy(sink, run->bcast_data.data(),
                      std::min(len, run->bcast_data.size()));
        }
      }
      for (auto* w : waiters) w->wake();
    });
  }
  proc_.block();
}

double SimComm::allreduce(double x, bool want_max) {
  if (run_.metrics.reduces != nullptr) run_.metrics.reduces->add(1);
  auto& st = run_.reduce_state;
  if (st.arrived == 0) run_.reduce_contrib.clear();
  st.waiting.push_back(&proc_);
  run_.reduce_contrib.push_back(x);
  if (++st.arrived == run_.nprocs) {
    const double cost = 2.0 * tree_depth(run_.nprocs) * run_.costs.reduce_hop;
    auto waiters = std::move(st.waiting);
    st.waiting.clear();
    st.arrived = 0;
    SimRun* run = &run_;
    const bool is_max = want_max;
    run_.engine.schedule_after(cost, [run, is_max, waiters = std::move(waiters)] {
      double acc = is_max ? -1.0e300 : 0.0;
      for (double v : run->reduce_contrib) {
        acc = is_max ? std::max(acc, v) : acc + v;
      }
      run->reduce_result.assign(static_cast<std::size_t>(run->nprocs), acc);
      for (auto* w : waiters) w->wake();
    });
  }
  proc_.block();
  return run_.reduce_result[static_cast<std::size_t>(rank_)];
}

double SimComm::allreduce_max(double x) { return allreduce(x, true); }
double SimComm::allreduce_sum(double x) { return allreduce(x, false); }

void SimComm::alltoallv(const void* sendbuf, std::span<const std::size_t> scounts,
                        std::span<const std::size_t> sdispls, void* recvbuf,
                        std::span<const std::size_t> rcounts,
                        std::span<const std::size_t> rdispls) {
  // Vector-argument scan: MPI_Alltoallv implementations walk count and
  // displacement arrays of length P on every call.
  if (run_.metrics.alltoallvs != nullptr) run_.metrics.alltoallvs->add(1);
  proc_.sleep(run_.costs.alltoallv_base +
              run_.costs.alltoallv_per_rank * static_cast<double>(run_.nprocs));
  alltoallv_generic(sendbuf, scounts, sdispls, recvbuf, rcounts, rdispls);
}

// ---------------------------------------------------------------------------
// SimTransport
// ---------------------------------------------------------------------------

SimTransport::SimTransport(std::unique_ptr<net::Topology> topology, CommCosts costs)
    : topology_(std::move(topology)), costs_(costs) {
  if (!topology_) throw std::invalid_argument("SimTransport: null topology");
}

SimTransport::~SimTransport() = default;

int SimTransport::max_processes() const { return topology_->num_endpoints(); }

void SimTransport::run(int nprocs, const std::function<void(Comm&)>& body) {
  run_with_setup(nprocs, {}, body);
}

void SimTransport::set_tracer(std::shared_ptr<simt::Tracer> tracer) {
  tracer_ = std::move(tracer);
  if (tracer_) {
    tracer_->describe('c', "compute");
    tracer_->describe('b', "collective");
    tracer_->describe('w', "msg-wait");
    tracer_->describe('W', "io-write");
    tracer_->describe('R', "io-read");
  }
}

void SimTransport::attach_metrics(obs::Registry* registry) {
  metrics_ = registry;
}

void SimTransport::label_next_session(const std::string& label) {
  next_session_label_ = label;
}

void SimTransport::set_fault_plan(const robust::FaultPlan* plan) {
  fault_plan_ = plan;
  fault_attempt_ = 1;
}

void SimTransport::set_fault_attempt(int attempt) {
  fault_attempt_ = attempt < 1 ? 1 : attempt;
}

robust::SessionInjector* SimTransport::session_injector() const {
  return injector_.get();
}

void SimTransport::run_with_setup(int nprocs,
                                  const std::function<void(simt::Engine&)>& setup,
                                  const std::function<void(Comm&)>& body) {
  if (nprocs < 1 || nprocs > max_processes()) {
    throw std::invalid_argument("SimTransport::run: nprocs out of range 1.." +
                                std::to_string(max_processes()));
  }
  SimRun run(*topology_, costs_, nprocs);
  run.tracer = tracer_.get();
  run.attach_metrics(metrics_);
  // One tracer session and one registry sample section per run, with
  // the same label: the trace exporter pairs them up by index so 'C'
  // counter events land in the right Chrome process.
  const std::string session_label = std::move(next_session_label_);
  next_session_label_.clear();
  if (run.tracer != nullptr) run.tracer->begin_session(session_label);
  if (metrics_ != nullptr) metrics_->begin_section();
  // Fault wiring must precede setup(): co-simulated subsystems fetch
  // the injector via session_injector() from their setup callback.
  injector_.reset();
  if (fault_plan_ != nullptr) {
    injector_ = std::make_unique<robust::SessionInjector>(
        *fault_plan_, session_label, fault_attempt_);
    run.injector = injector_.get();
    if (fault_plan_->retry.timeout_s > 0.0) {
      run.engine.set_deadline(fault_plan_->retry.timeout_s);
    }
  }
  if (setup) setup(run.engine);
  for (int r = 0; r < nprocs; ++r) {
    run.comms.push_back(nullptr);  // placeholder; filled when spawning
  }
  for (int r = 0; r < nprocs; ++r) {
    run.engine.spawn([&run, r, &body](simt::Process& proc) {
      run.comms[static_cast<std::size_t>(r)] =
          std::unique_ptr<SimComm>(new SimComm(run, r, proc));
      body(*run.comms[static_cast<std::size_t>(r)]);
    });
  }
  run.engine.run();
  last_virtual_time_ = run.engine.now();
  if (metrics_ != nullptr) {
    // Engine totals are sampled once at session end rather than
    // incremented inline: the engine must not depend on obs.  All
    // three are deterministic functions of the simulated configuration.
    metrics_->counter("simt.events_fired").add(run.engine.events_fired());
    metrics_->counter("simt.context_switches").add(run.engine.context_switches());
    metrics_->sum("simt.virtual_seconds").add(run.engine.now());
    metrics_->counter("net.flow_resolves").add(run.flows.resolves());
    metrics_->counter("net.flow_fill_rounds").add(run.flows.fill_rounds());
    metrics_->counter("net.flow_fill_visits").add(run.flows.fill_visits());
    metrics_->counter("net.flow_fill_resets").add(run.flows.fill_resets());
    metrics_->counter("net.flow_rate_changes").add(run.flows.rate_changes());
    // Capacity high-waters (merge across cells: max).  Both derive
    // from the simulated configuration, never from the stack pool's
    // host-side reuse behaviour, which would break record determinism
    // (docs/SIMULATOR.md "Determinism invariants").
    metrics_->gauge("simt.live_ranks_high_water")
        .set_max(static_cast<double>(run.engine.live_process_high_water()));
    metrics_->gauge("simt.fiber_stack_bytes_high_water")
        .set_max(static_cast<double>(run.engine.live_process_high_water()) *
                 static_cast<double>(simt::StackPool::default_stack_size()));
    // Only ever registered when a fault plan is active, so fault-free
    // records keep their exact pre-fault metric key set.
    if (run.injector != nullptr) {
      metrics_->counter("robust.faults_injected").add(run.injector->injected_count());
    }
  }
}

std::string SimTransport::describe() const {
  std::ostringstream oss;
  oss << "sim transport [" << topology_->describe() << ']';
  return oss.str();
}

}  // namespace balbench::parmsg
