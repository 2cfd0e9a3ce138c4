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
// Every change re-solves all active flows (docs/SIMULATOR.md
// "Re-solve"): in the b_eff ring and random patterns every flow is
// coupled to every other one through shared links, so there is no
// smaller independent component to re-solve.  The fill is
// bottleneck-driven and incremental across resolves:
//
// * a persistent link->flow index keeps each link's flows in arrival
//   order and its active-flow count; an arrival appends, a departure
//   leaves a tombstone (recognised by seq), and a list is compacted
//   once tombstones reach half its length;
// * an 8-ary min-tree over the touched links' exact residual fair
//   shares lets each round visit only the links and flows it freezes;
// * the fill resumes at the first round the change can alter: for
//   departures, the first round that queued one of the departed flows'
//   links; for arrivals, the first round in which one of the new flows'
//   links, counting them, would have come to or under the threshold --
//   at the round's start or after any freeze in it, replayed from the
//   last fill's log.  Every earlier round froze the same flows at the
//   same share, so the fill rolls the rounds from there back --
//   restoring each touched link's logged residual, newest entry first
//   -- and searches only those.  The first fill, a fill after a stall
//   and a resume at round 1 reset the touched links instead.
//
// Candidates are tested in arrival order against the state earlier
// freezes of the same round left behind, which reproduces the
// scan-everything fill bit for bit (same rates, same rounds;
// docs/SIMULATOR.md "Re-solve" has the arguments).  What keeps a
// resolve cheap beyond that is committing only the flows the fill
// searched, and of those only the ones whose rate actually moved; the
// model keeps the phenomena the paper relies on (shared torus links,
// NIC duplex limits, SMP bus saturation).
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "net/max_min.hpp"
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

  /// Progressive-filling rounds summed over all fills.  A pure function
  /// of the flow history, like resolves().
  [[nodiscard]] std::uint64_t fill_rounds() const { return fill_rounds_; }

  /// Fill work summed over all fills: one per link-share evaluation
  /// (min-tree nodes built, inspected or recomputed; bottleneck tests)
  /// plus one per link-flow incidence visited (link->flow index
  /// maintenance on arrival and departure, list scans, freeze updates
  /// and their undo).  Deterministic, so "more work" and "slower work"
  /// can be told apart.
  [[nodiscard]] std::uint64_t fill_visits() const { return fill_visits_; }

  /// Fills that started over from round 1: the first, one after a
  /// stall, and one whose arrivals or departures reach back to round 1.
  /// A pure function of the flow history, like fill_rounds().
  [[nodiscard]] std::uint64_t fill_resets() const { return fill_resets_; }

  /// Flows whose committed rate moved, summed over all resolves (an
  /// arrival's first rate included).  A pure function of the flow
  /// history, like resolves().
  [[nodiscard]] std::uint64_t rate_changes() const { return rate_changes_; }

  /// The active flows in arrival order with their committed rates
  /// (diagnostics: check_max_min's input).  Right after a resolve these
  /// are the fill's rates; a flow that arrived since has rate 0.  The
  /// paths stay valid until the flow departs.
  [[nodiscard]] std::vector<FlowRate> allocation() const;

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
  // FlowFill::path points into ActiveFlow::path across slots_ growth.
  static_assert(std::is_nothrow_move_constructible_v<ActiveFlow>);

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
  /// live).  Entry i was searched if bit i of searched_ is set, and then
  /// rates_scratch_[i] is its max-min rate; every other entry keeps its
  /// committed rate.  Commits nothing.
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
  /// go stale in place (their seq no longer matches the slot's
  /// flow_fill_ seq) and are compacted away during the next resolve's
  /// walk, which starts at reindex_from_: the lowest arrival index that
  /// departed or arrived.
  struct ArrivalEntry {
    FlowSlot slot;
    std::uint64_t seq;
  };
  std::vector<ArrivalEntry> arrival_order_;
  static constexpr std::size_t kNoReindex = static_cast<std::size_t>(-1);
  std::size_t reindex_from_ = kNoReindex;

  bool resolve_pending_ = false;
  std::uint64_t resolves_ = 0;

  std::uint64_t fill_rounds_ = 0;
  std::uint64_t fill_visits_ = 0;
  std::uint64_t fill_resets_ = 0;
  std::uint64_t rate_changes_ = 0;

  // Fill state, reused across fills (no allocation in steady state)
  // and allocated by the first one.  Between fills every link has
  // flows == 0 less the flows that departed since and every min-tree
  // leaf is +inf; the inner nodes above the last round's leaves are
  // repaired by the next fill, whose dirty bits they keep.  A fill that
  // ends early (a stall throws) leaves fill_clean_ false, and the next
  // fill starts over, index included.  Flows are numbered by arrival
  // index within a fill.
  static constexpr std::uint32_t kFrozen = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNever = 0xFFFFFFFFu;  // round: not queued
  static constexpr std::uint32_t kFanout = 8;  // min-tree node width (min_of_node)
  struct LinkFill {
    double residual = 0.0;           // capacity not yet handed out
    double share = 0.0;              // residual / flows, as of the last change
    int flows = 0;                   // unfixed flows crossing the link
    std::uint32_t queued_round = 0;  // round its flows were last queued
    std::uint32_t first_queued = kNever;  // round first queued, last fill
    std::uint32_t probe = kNever;    // index in probe_ while probed
  };
  /// A link of arrived flows, replayed through the last fill's log.
  struct LinkProbe {
    LinkId link;
    int flows;        // the last fill's flows not yet frozen, plus arrivals
    double residual;  // as in the last fill
  };
  struct FlowPath {
    const LinkId* begin;
    const LinkId* end;
  };
  /// Per flow slot: path and seq are set on arrival, index by the
  /// resolve that compacts past the flow, round by the fills.
  struct FlowFill {
    FlowPath path{nullptr, nullptr};
    std::uint64_t seq = 0;    // the indexed flow in this slot; 0 = none
    std::uint32_t index = 0;  // arrival index in this fill
    std::uint32_t round = 0;  // round queued; kFrozen once fixed
  };
  /// A link's residual before one freeze updated it.
  struct UndoEntry {
    LinkId link;
    double residual;
  };
  /// One link's flows: a run of index_pool_ in arrival order, departed
  /// flows left as tombstones (their seq no longer matches the slot's).
  struct LinkFlows {
    std::uint32_t begin = 0;     // first entry in index_pool_
    std::uint32_t size = 0;      // entries, tombstones included
    std::uint32_t capacity = 0;  // pool entries reserved for the link
    int live = 0;                // entries of active flows
    bool listed = false;         // in indexed_links_
  };
  /// An all-+inf min-tree with one leaf per link.
  void build_share_tree(std::size_t links);
  void mark_leaf_dirty(LinkId link) {
    const auto node = static_cast<std::size_t>(link) / kFanout;
    tree_dirty_[tree_dirty_level_[1] + node / 64] |= std::uint64_t{1} << (node % 64);
  }
  /// Recompute the inner nodes above dirty leaves; returns how many.
  std::uint64_t update_share_tree();
  /// The first round below `limit` of the last fill in which a link of
  /// probe_ comes to or under the round's threshold, else `limit`.
  std::uint32_t probe_arrivals(std::uint32_t limit, std::uint64_t& visits);
  /// A link's share from its residual and flows, into its leaf.
  void update_share(LinkId link, LinkFill& s);
  [[nodiscard]] const ArrivalEntry* link_begin(const LinkFlows& lf) const {
    return index_pool_.data() + lf.begin;
  }
  /// Append to a link's run, moving it to the pool's end when full.
  void append_flow(LinkFlows& lf, ArrivalEntry e);
  /// Drop a link's tombstones; returns the entries scanned.
  std::uint64_t compact_link(LinkFlows& lf);
#ifndef NDEBUG
  /// Checked builds: the index equals a recount of the active flows.
  void check_index() const;
#endif

  bool fill_clean_ = false;
  std::vector<LinkFill> link_fill_;     // by LinkId
  std::vector<FlowFill> flow_fill_;     // by FlowSlot
  // The persistent link->flow index.  The lists share one pool, so a
  // session allocates a handful of buffers rather than one per link; a
  // list that outgrows its run moves to the end of the pool, and a
  // full pool is repacked in place, instead of grown, once moved-out
  // runs make up a quarter of it.
  std::vector<LinkFlows> link_flows_;   // by LinkId
  std::vector<ArrivalEntry> index_pool_;
  std::size_t pool_unused_ = 0;         // entries of runs moved away
  std::vector<LinkId> indexed_links_;   // the links with a run
  std::uint64_t indexed_seq_ = 0;       // newest flow in the index
  // Lowest first-queued round over the links of flows that departed
  // since the last fill: where the next fill resumes.
  std::uint32_t resume_round_ = kNever;
  // The last fill's log: round k (from 1) froze the slots
  // freeze_log_[round_begin_[k - 1], round_begin_[k]) in that order,
  // at round_share_[k - 1], and those freezes updated the links of
  // undo_log_[undo_begin_[k - 1], undo_begin_[k]), in that order.
  std::vector<FlowSlot> freeze_log_;
  std::vector<std::uint32_t> round_begin_;
  std::vector<double> round_share_;
  std::vector<UndoEntry> undo_log_;
  std::vector<std::uint32_t> undo_begin_;
  // Min-tree over link shares (leaf l is link l), leaves first, then
  // each coarser level; level t starts at share_level_[t] and the root
  // is the last node.
  std::vector<double> share_tree_;
  std::vector<std::uint32_t> share_level_;
  // Inner nodes to recompute before a round, one bit each: level t >= 1
  // owns words [tree_dirty_level_[t], tree_dirty_level_[t + 1]), and a
  // last spare word takes the root's parent bit.
  std::vector<std::uint64_t> tree_dirty_;
  std::vector<std::uint32_t> tree_dirty_level_;
  std::vector<std::uint64_t> seed_stack_;   // (level << 32 | node) to inspect
  std::vector<std::uint64_t> candidates_;   // bitset over arrival indices
  std::vector<std::uint64_t> searched_;     // bitset: frozen by this fill's search
  std::vector<LinkProbe> probe_;            // the links of this fill's arrivals
  std::vector<double> rates_scratch_;
};

}  // namespace balbench::net
