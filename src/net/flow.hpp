// Flow-level network simulation with max-min fair link sharing.
//
// Instead of simulating packets, every in-flight message is a *flow*
// with a byte count and a link path.  Whenever the active flow set
// changes, bandwidth is (re)allocated by progressive filling: all flows
// grow at the same rate until a link saturates, the flows through that
// link are frozen at their fair share, and the process repeats -- the
// classic max-min fairness computation used by flow-level simulators
// such as SimGrid.  Each flow then has its own completion event in the
// engine's indexed queue, rescheduled in O(log n) when its rate moves.
//
// Every change re-runs the fill over all active flows (docs/SIMULATOR.md
// "Re-solve"): in the b_eff ring and random patterns every flow is
// coupled to every other one through shared links, so there is no
// smaller independent component to re-solve.  What keeps a resolve
// cheap is committing only the flows whose rate actually moved; the
// model keeps the phenomena the paper relies on (shared torus links,
// NIC duplex limits, SMP bus saturation).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/topology.hpp"
#include "simt/engine.hpp"

namespace balbench::net {

class FlowNetwork {
 public:
  FlowNetwork(const Topology& topo, simt::Engine& engine);

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Begin transferring `bytes` from endpoint src to endpoint dst.
  /// `done` fires (from an engine event) when the last byte arrives;
  /// the transfer sees the topology's end-to-end latency first, then
  /// streams bytes at its max-min fair rate.
  void start_flow(int src, int dst, double bytes,
                  std::function<void(simt::Time)> done);

  /// Number of flows currently moving bytes (diagnostics).
  [[nodiscard]] std::size_t active_flows() const { return active_count_; }

  /// Total resolver invocations (micro-benchmark instrumentation).
  [[nodiscard]] std::uint64_t resolves() const { return resolves_; }

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] simt::Engine& engine() { return engine_; }

 private:
  /// Slot index into slots_; stable for the lifetime of one flow,
  /// recycled afterwards.
  using FlowSlot = std::uint32_t;

  struct ActiveFlow {
    std::vector<LinkId> path;
    double remaining = 0.0;   // bytes, valid as of last_update
    double rate = 0.0;        // bytes/second under current allocation
    simt::Time last_update = 0.0;
    std::uint64_t seq = 0;    // arrival order; stable across slot reuse
    std::uint64_t completion_event = 0;  // engine event id; 0 = none
    std::function<void(simt::Time)> done;
    bool in_use = false;
  };

  void add_active(ActiveFlow flow);
  void on_flow_complete(FlowSlot slot);
  /// Defer resolve to the end of the current timestamp so that a batch
  /// of simultaneous arrivals/departures (every rank of a ring pattern
  /// starts its sends at the same virtual instant) costs one resolve.
  void schedule_resolve();
  /// Recompute every active rate and (re)schedule the completion
  /// events of the flows whose rate moved.
  void resolve();
  /// Progressive filling over arrival_order_ (compacted: every entry
  /// live); rates_scratch_[i] receives the max-min rate of entry i.
  /// Pure: commits nothing.
  void fill_rates();

  [[nodiscard]] double remaining_at(const ActiveFlow& f, simt::Time now) const {
    const double left = f.remaining - f.rate * (now - f.last_update);
    return left > 0.0 ? left : 0.0;
  }

  const Topology& topo_;
  simt::Engine& engine_;

  std::vector<ActiveFlow> slots_;
  std::vector<FlowSlot> free_slots_;
  std::size_t active_count_ = 0;
  std::uint64_t next_flow_seq_ = 1;

  /// Active flows in arrival order: seq is monotonic, so appending on
  /// arrival keeps this sorted -- resolve() reads commit order straight
  /// off it instead of sorting per resolve.  Entries of departed flows
  /// go stale in place (detected by seq mismatch / !in_use) and are
  /// compacted away during the next resolve's walk.
  struct ArrivalEntry {
    FlowSlot slot;
    std::uint64_t seq;
  };
  std::vector<ArrivalEntry> arrival_order_;

  bool resolve_pending_ = false;
  std::uint64_t resolves_ = 0;

  // Scratch buffers reused across resolves; residual_/flows_on_link_
  // are only valid at indices listed in touched_links_.
  std::vector<double> residual_;
  std::vector<int> flows_on_link_;
  std::vector<LinkId> touched_links_;
  std::vector<std::uint32_t> unfixed_;
  std::vector<const std::vector<LinkId>*> paths_scratch_;
  std::vector<double> rates_scratch_;
};

}  // namespace balbench::net
