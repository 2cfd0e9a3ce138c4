#include "net/flow.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

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

// Min-tree leaf of a link: its share, with NaN stored as +inf so that
// it is never the minimum, just as std::min skips a NaN in a scan.  A
// link whose last unfixed flow froze has residual >= 0 over zero flows,
// +inf or NaN, so it drops out of the minimum the same way.
double leaf_share(double share) {
  // (share < inf) ? share : inf, which is false for NaN; branch-free.
  return std::min(std::numeric_limits<double>::infinity(), share);
}

// Smallest of a min-tree node's eight children, as a balanced
// reduction (three dependent steps instead of seven).
double min_of_node(const double* c) {
  const double a = std::min(std::min(c[0], c[1]), std::min(c[2], c[3]));
  const double b = std::min(std::min(c[4], c[5]), std::min(c[6], c[7]));
  return std::min(a, b);
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

void FlowNetwork::build_share_tree(std::size_t links) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  share_tree_.assign(links, kInf);
  share_level_.assign(1, 0);
  // At least one inner level, so that every leaf has a parent.
  std::size_t width = links;
  do {
    // Pad this level to whole nodes, then add the level above it.
    const std::size_t parents = (width + kFanout - 1) / kFanout;
    share_tree_.resize(share_level_.back() + parents * kFanout, kInf);
    share_level_.push_back(static_cast<std::uint32_t>(share_tree_.size()));
    share_tree_.resize(share_tree_.size() + parents, kInf);
    width = parents;
  } while (width > 1);
  tree_dirty_level_.assign(1, 0);
  std::uint32_t words = 0;
  for (std::size_t t = 1; t < share_level_.size(); ++t) {
    const std::size_t next =
        t + 1 < share_level_.size() ? share_level_[t + 1] : share_tree_.size();
    tree_dirty_level_.push_back(words);
    words += static_cast<std::uint32_t>((next - share_level_[t] + 63) / 64);
  }
  tree_dirty_level_.push_back(words);
  tree_dirty_.assign(words, 0);
}

std::uint64_t FlowNetwork::update_share_tree() {
  // Every inner node above a leaf that changed, once, level by level;
  // a node whose minimum holds does not dirty its parent.
  std::uint64_t recomputed = 0;
  const std::size_t top = share_level_.size() - 1;
  for (std::size_t t = 1; t <= top; ++t) {
    for (std::uint32_t w = tree_dirty_level_[t]; w < tree_dirty_level_[t + 1]; ++w) {
      for (std::uint64_t bits = std::exchange(tree_dirty_[w], 0); bits != 0;
           bits &= bits - 1) {
        const std::uint32_t j = (w - tree_dirty_level_[t]) * 64 +
                                static_cast<std::uint32_t>(std::countr_zero(bits));
        const double m = min_of_node(&share_tree_[share_level_[t - 1] + j * kFanout]);
        ++recomputed;
        double& node = share_tree_[share_level_[t] + j];
        if (m == node) continue;
        node = m;
        if (t < top) {
          const std::uint32_t parent = j / kFanout;
          tree_dirty_[tree_dirty_level_[t + 1] + parent / 64] |= std::uint64_t{1}
                                                                << (parent % 64);
        }
      }
    }
  }
  return recomputed;
}

void FlowNetwork::fill_rates() {
  // --- Progressive filling (max-min fairness). ---
  // Only links actually crossed by an active flow take part; on large
  // topologies this is a small subset.
  const auto& links = topo_.links();
  if (link_fill_.size() != links.size() || !fill_clean_) {
    link_fill_.assign(links.size(), LinkFill{});
    build_share_tree(links.size());
  }
  fill_clean_ = false;
  const std::size_t n = arrival_order_.size();
  std::uint64_t visits = 0;

  // Pass 1: resolve the slot indirection once and count each link's
  // flows.
  touched_links_.clear();
  fill_paths_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::vector<LinkId>& path = slots_[arrival_order_[i].slot].path;
    fill_paths_.push_back(FlowPath{path.data(), path.data() + path.size()});
    visits += path.size();
    for (LinkId l : path) {
      LinkFill& s = link_fill_[static_cast<std::size_t>(l)];
      if (s.flows == 0) {
        touched_links_.push_back(l);
        s.residual = links[static_cast<std::size_t>(l)].bandwidth;
      }
      ++s.flows;
    }
  }
  // Pass 2: the link->flow index (CSR) and the touched links' leaves.
  // Flows are placed in arrival order, so each link's list is
  // ascending.
  std::uint32_t offset = 0;
  for (LinkId l : touched_links_) {
    LinkFill& s = link_fill_[static_cast<std::size_t>(l)];
    s.csr_begin = s.csr_end = offset;
    offset += static_cast<std::uint32_t>(s.flows);
    s.queued_round = 0;  // rounds restart at 1 in every fill
    s.share = s.residual / s.flows;
    share_tree_[static_cast<std::size_t>(l)] = leaf_share(s.share);
    mark_leaf_dirty(l);
  }
  csr_flows_.resize(offset);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (const LinkId* p = fill_paths_[i].begin; p != fill_paths_[i].end; ++p) {
      csr_flows_[link_fill_[static_cast<std::size_t>(*p)].csr_end++] = i;
    }
  }
  visits += offset + touched_links_.size() + update_share_tree();

  rates_scratch_.assign(n, 0.0);
  flow_round_.assign(n, 0);
  candidates_.assign((n + 63) / 64, 0);
  const std::uint32_t* const csr = csr_flows_.data();
  const auto top = static_cast<std::uint32_t>(share_level_.size() - 1);
  std::size_t unfixed = n;
  for (std::uint32_t round = 1; unfixed > 0; ++round) {
    ++fill_rounds_;
    // Most constrained link: smallest residual fair share, the root.
    const double min_share =
        std::min(std::numeric_limits<double>::max(), share_tree_.back());
    if (min_share == std::numeric_limits<double>::max()) {
      report_fill_stall("no saturable link", unfixed, n);
    }
    const double eps = min_share * 1e-12;
    const double threshold = min_share + eps;

    // Freeze every unfixed flow that crosses a bottleneck link, testing
    // flows in arrival order against the state earlier freezes of this
    // round left behind.  Only candidates are tested: the flows of links
    // at or under the threshold at round start, plus -- whenever a
    // freeze leaves a link at or under it -- that link's flows that come
    // later in arrival order.  The last change to a link before a flow's
    // turn is made by a freeze of an earlier flow, so every flow the
    // test would freeze is queued before its turn.
    std::size_t first_word = candidates_.size();
    std::size_t last_word = 0;
    const auto queue_flows = [&](const std::uint32_t* first, const std::uint32_t* last) {
      if (first == last) return;
      visits += static_cast<std::uint64_t>(last - first);
      // The list is ascending: its ends bound the words it can touch.
      first_word = std::min<std::size_t>(first_word, *first / 64);
      last_word = std::max<std::size_t>(last_word, last[-1] / 64);
      for (; first != last; ++first) {
        const std::uint32_t fi = *first;
        if (flow_round_[fi] >= round) continue;  // queued this round, or frozen
        flow_round_[fi] = round;
        candidates_[fi / 64] |= std::uint64_t{1} << (fi % 64);
      }
    };
    // Links at or under the threshold: descend from the root into every
    // node whose minimum is (a node above it bounds its whole subtree).
    seed_stack_.clear();
    if (share_tree_.back() <= threshold) seed_stack_.push_back(std::uint64_t{top} << 32);
    while (!seed_stack_.empty()) {
      const auto level = static_cast<std::uint32_t>(seed_stack_.back() >> 32);
      const auto node = static_cast<std::uint32_t>(seed_stack_.back());
      seed_stack_.pop_back();
      if (level == 0) {
        // Only a threshold of +inf lets a link without unfixed flows
        // (or a padding leaf) through.
        if (node >= link_fill_.size() || link_fill_[node].flows == 0) continue;
        LinkFill& s = link_fill_[node];
        s.queued_round = round;
        queue_flows(csr + s.csr_begin, csr + s.csr_end);
        continue;
      }
      const std::uint32_t first = node * kFanout;
      const double* c = &share_tree_[share_level_[level - 1] + first];
      visits += kFanout;
      for (std::uint32_t i = 0; i < kFanout; ++i) {
        if (c[i] <= threshold) {
          seed_stack_.push_back(std::uint64_t{level - 1} << 32 | (first + i));
        }
      }
    }

    std::size_t frozen = 0;
    for (std::size_t w = first_word; w <= last_word && w < candidates_.size(); ++w) {
      while (candidates_[w] != 0) {
        // Queuing only ever adds later flows, so taking the lowest bit
        // visits candidates in arrival order.
        const auto fi = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(candidates_[w])));
        candidates_[w] &= candidates_[w] - 1;
        const FlowPath path = fill_paths_[fi];
        // The bottleneck test, on each link's residual / flows (kept
        // current by every change below).
        const bool bottleneck = std::any_of(path.begin, path.end, [&](LinkId l) {
          ++visits;
          return link_fill_[static_cast<std::size_t>(l)].share <= threshold;
        });
        if (!bottleneck) continue;
        rates_scratch_[fi] = min_share;
        flow_round_[fi] = kFrozen;
        ++frozen;
        visits += static_cast<std::uint64_t>(path.end - path.begin);
        for (const LinkId* p = path.begin; p != path.end; ++p) {
          LinkFill& s = link_fill_[static_cast<std::size_t>(*p)];
          s.residual = std::max(0.0, s.residual - min_share);
          --s.flows;
          s.share = s.residual / s.flows;
          share_tree_[static_cast<std::size_t>(*p)] = leaf_share(s.share);
          mark_leaf_dirty(*p);
          if (s.share <= threshold && s.flows > 0 && s.queued_round != round) {
            // Flows queued for this link from here on stay queued, so
            // one scan per link and round suffices.
            s.queued_round = round;
            const std::uint32_t* const last = csr + s.csr_end;
            queue_flows(std::upper_bound(csr + s.csr_begin, last, fi), last);
          }
        }
      }
    }
    if (frozen == 0) {
      report_fill_stall("no flow crosses a bottleneck", unfixed, n);
    }
    unfixed -= frozen;
    visits += update_share_tree();
  }
  fill_visits_ += visits;
  fill_clean_ = true;
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
