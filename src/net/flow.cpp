#include "net/flow.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace balbench::net {

namespace {
// A flow is finished once less than half a byte remains; avoids
// spinning on floating-point residue.
constexpr double kDoneEpsilonBytes = 0.5;

// A fill-loop stall means the solver's invariants broke (every unfixed
// flow crosses at least one touched link with a positive flow count,
// so a bottleneck always exists).  Checked in every build: carrying on
// would leave flows at rate zero.
[[noreturn]] void report_fill_stall(const char* what, std::size_t unfixed,
                                    std::size_t total) {
  throw std::logic_error("FlowNetwork: progressive filling stalled: " +
                         std::string(what) + " (" + std::to_string(unfixed) +
                         " of " + std::to_string(total) + " flows unfixed)");
}
}  // namespace

FlowNetwork::FlowNetwork(const Topology& topo, simt::Engine& engine)
    : topo_(topo), engine_(engine) {}

void FlowNetwork::start_flow(int src, int dst, double bytes,
                             std::function<void(simt::Time)> done) {
  if (src < 0 || src >= topo_.num_endpoints() || dst < 0 ||
      dst >= topo_.num_endpoints()) {
    throw std::out_of_range("FlowNetwork::start_flow: endpoint out of range");
  }
  const double lat = topo_.latency(src, dst);

  ActiveFlow flow;
  topo_.route(src, dst, flow.path);
  flow.remaining = std::max(bytes, 0.0);
  flow.done = std::move(done);

  if (flow.path.empty()) {
    // Node-local transfer: a straight memcpy, no link contention.
    const double t = lat + flow.remaining / topo_.self_bandwidth();
    auto cb = std::move(flow.done);
    engine_.schedule_after(t, [this, cb = std::move(cb)] { cb(engine_.now()); });
    return;
  }

  if (flow.remaining < kDoneEpsilonBytes) {
    auto cb = std::move(flow.done);
    engine_.schedule_after(lat, [this, cb = std::move(cb)] { cb(engine_.now()); });
    return;
  }

  // The wire latency elapses before bytes start streaming; the flow
  // only contends for links after that.
  engine_.schedule_after(lat, [this, flow = std::move(flow)]() mutable {
    add_active(std::move(flow));
  });
}

void FlowNetwork::add_active(ActiveFlow flow) {
  FlowSlot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(flow);
  } else {
    slot = static_cast<FlowSlot>(slots_.size());
    slots_.push_back(std::move(flow));
  }
  ActiveFlow& f = slots_[slot];
  f.in_use = true;
  f.seq = next_flow_seq_++;
  f.rate = 0.0;
  f.last_update = engine_.now();
  f.completion_event = 0;
  ++active_count_;
  arrival_order_.push_back(ArrivalEntry{slot, f.seq});
  schedule_resolve();
}

void FlowNetwork::schedule_resolve() {
  if (resolve_pending_) return;
  resolve_pending_ = true;
  // Same-timestamp event: runs after all events already queued for the
  // current instant, so simultaneous arrivals share one resolve.
  engine_.schedule_after(0.0, [this] {
    resolve_pending_ = false;
    resolve();
  });
}

void FlowNetwork::fill_rates() {
  // --- Progressive filling (max-min fairness). ---
  // Only links actually crossed by an active flow take part; on large
  // topologies this is a small subset.
  const auto& links = topo_.links();
  if (residual_.size() != links.size()) {
    residual_.assign(links.size(), 0.0);
    flows_on_link_.assign(links.size(), 0);
  }
  const std::size_t n = arrival_order_.size();
  touched_links_.clear();
  rates_scratch_.assign(n, 0.0);
  unfixed_.clear();
  // Resolve the slot indirection once: the freeze loop below touches
  // every unfixed path each round, and chasing slots_ from inside it
  // costs a measurable fraction of the whole solve.
  paths_scratch_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    unfixed_.push_back(i);
    paths_scratch_.push_back(&slots_[arrival_order_[i].slot].path);
    for (LinkId l : *paths_scratch_.back()) {
      const auto idx = static_cast<std::size_t>(l);
      if (flows_on_link_[idx] == 0) {
        touched_links_.push_back(l);
        residual_[idx] = links[idx].bandwidth;
      }
      ++flows_on_link_[idx];
    }
  }

  while (!unfixed_.empty()) {
    // Most constrained link: smallest residual fair share.  Links
    // whose flows have all frozen are compacted away in passing, so
    // this scan shrinks as the fill proceeds instead of re-walking
    // every touched link each round.
    double min_share = std::numeric_limits<double>::max();
    std::size_t live = 0;
    for (LinkId l : touched_links_) {
      const auto idx = static_cast<std::size_t>(l);
      if (flows_on_link_[idx] > 0) {
        touched_links_[live++] = l;
        min_share = std::min(min_share, residual_[idx] / flows_on_link_[idx]);
      }
      // else: count already zero, which is exactly the scratch
      // invariant the next fill expects -- safe to forget the link.
    }
    touched_links_.resize(live);
    if (min_share == std::numeric_limits<double>::max()) {
      report_fill_stall("no saturable link", unfixed_.size(), n);
    }

    // Freeze every unfixed flow that crosses a bottleneck link.
    const double eps = min_share * 1e-12;
    const auto is_bottleneck = [&](LinkId l) {
      const auto idx = static_cast<std::size_t>(l);
      return residual_[idx] / flows_on_link_[idx] <= min_share + eps;
    };
    std::size_t kept = 0;
    for (std::size_t i = 0; i < unfixed_.size(); ++i) {
      const std::uint32_t fi = unfixed_[i];
      const auto& path = *paths_scratch_[fi];
      const bool frozen =
          std::any_of(path.begin(), path.end(), is_bottleneck);
      if (frozen) {
        rates_scratch_[fi] = min_share;
        for (LinkId l : path) {
          const auto idx = static_cast<std::size_t>(l);
          residual_[idx] = std::max(0.0, residual_[idx] - min_share);
          --flows_on_link_[idx];
        }
      } else {
        unfixed_[kept++] = fi;
      }
    }
    if (kept == unfixed_.size()) {
      report_fill_stall("no flow crosses a bottleneck", kept, n);
    }
    unfixed_.resize(kept);
  }
}

void FlowNetwork::resolve() {
  // Nothing to allocate once the last flow has departed; not counted.
  if (active_count_ == 0) return;
  ++resolves_;
  const simt::Time now = engine_.now();

  // Compact stale entries (departed flows; a recycled slot is
  // recognised by its seq) out of the arrival-ordered list, which then
  // holds exactly the active flows in commit order -- no per-resolve
  // sort.
  std::size_t live = 0;
  for (const ArrivalEntry& e : arrival_order_) {
    const ActiveFlow& f = slots_[e.slot];
    if (!f.in_use || f.seq != e.seq) continue;
    arrival_order_[live++] = e;
  }
  arrival_order_.resize(live);
  if (live != active_count_) {
    throw std::logic_error("FlowNetwork: arrival list out of sync (" +
                           std::to_string(live) + " live entries, " +
                           std::to_string(active_count_) + " active flows)");
  }

  fill_rates();

  // Commit, in arrival order: materialize progress under the *old*
  // rate up to now, install the new rate, and move the flow's
  // completion event to the new finish time (O(log n) each on the
  // engine's indexed queue).
  for (std::size_t i = 0; i < live; ++i) {
    const FlowSlot slot = arrival_order_[i].slot;
    ActiveFlow& f = slots_[slot];
    const double rate = rates_scratch_[i];
    if (rate <= 0.0) {
      throw std::logic_error("FlowNetwork: flow allocated zero rate (link with "
                             "zero capacity on its path?)");
    }
    if (rate == f.rate && f.completion_event != 0) {
      // Bitwise-identical rate: the flow's byte trajectory -- and the
      // completion event computed from it -- is still exact.  Skipping
      // the materialize+reschedule here is what keeps a resolve cheap:
      // a change usually re-derives the same rate for most flows.
      continue;
    }
    f.remaining = remaining_at(f, now);
    f.last_update = now;
    f.rate = rate;
    const double dt = f.remaining / f.rate;
    if (f.completion_event != 0) {
      f.completion_event = engine_.reschedule_after(f.completion_event, dt);
      assert(f.completion_event != 0 && "pending completion event vanished");
    } else {
      f.completion_event = engine_.schedule_after(
          dt, [this, slot] { on_flow_complete(slot); });
    }
  }
}

void FlowNetwork::on_flow_complete(FlowSlot slot) {
  ActiveFlow& f = slots_[slot];
  f.completion_event = 0;
  assert(remaining_at(f, engine_.now()) < kDoneEpsilonBytes &&
         "completion event fired with bytes left");
  auto cb = std::move(f.done);
  f.in_use = false;
  f.done = nullptr;
  f.path.clear();
  f.rate = 0.0;
  f.remaining = 0.0;
  free_slots_.push_back(slot);
  --active_count_;
  schedule_resolve();
  cb(engine_.now());
}

}  // namespace balbench::net
