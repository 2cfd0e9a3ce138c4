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
  // The fill reads a flow's path and seq from here on; the path buffer
  // moves with the ActiveFlow (nothrow move), so the pointers stay valid.
  if (flow_fill_.size() < slots_.size()) flow_fill_.resize(slots_.size());
  flow_fill_[slot] = FlowFill{{f.path.data(), f.path.data() + f.path.size()}, f.seq, 0, 0};
  reindex_from_ = std::min(reindex_from_, arrival_order_.size());
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
  tree_dirty_.assign(words + 1, 0);  // + the root's parent bit
}

std::uint64_t FlowNetwork::update_share_tree() {
  // Every inner node above a leaf that changed, once, level by level;
  // a node whose minimum holds does not dirty its parent.  The parent's
  // bit is set from the comparison rather than behind a branch, which
  // mispredicts often; the root sets a spare word's.
  std::uint64_t recomputed = 0;
  const std::size_t top = share_level_.size() - 1;
  for (std::size_t t = 1; t <= top; ++t) {
    std::uint64_t* const parents = &tree_dirty_[tree_dirty_level_[t + 1]];
    for (std::uint32_t w = tree_dirty_level_[t]; w < tree_dirty_level_[t + 1]; ++w) {
      for (std::uint64_t bits = std::exchange(tree_dirty_[w], 0); bits != 0;
           bits &= bits - 1) {
        const std::uint32_t j = (w - tree_dirty_level_[t]) * 64 +
                                static_cast<std::uint32_t>(std::countr_zero(bits));
        const double m = min_of_node(&share_tree_[share_level_[t - 1] + j * kFanout]);
        ++recomputed;
        double& node = share_tree_[share_level_[t] + j];
        const std::uint32_t parent = j / kFanout;
        parents[parent / 64] |= std::uint64_t{m != node} << (parent % 64);
        node = m;
      }
    }
  }
  return recomputed;
}

std::uint32_t FlowNetwork::probe_arrivals(std::uint32_t limit, std::uint64_t& visits) {
  // Replay each probed link's share through the last fill's rounds: it
  // starts at the link's bandwidth over its flows, and each freeze of
  // one of its flows (an undo entry) takes min_share off the logged
  // residual and one flow off the count, exactly as the search did.  A
  // departed flow still counts, which only lowers the share.  Between
  // its entries a link's share holds, so the lowest one is recomputed
  // only after a round that changed one.
  if (probe_.empty()) return limit;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double lowest = kInf;
  bool stale = true;
  for (std::uint32_t round = 1; round < limit; ++round) {
    const double min_share = round_share_[round - 1];
    const double threshold = min_share + min_share * 1e-12;
    if (stale) {
      lowest = kInf;
      for (const LinkProbe& p : probe_) lowest = std::min(lowest, p.residual / p.flows);
      visits += probe_.size();
      stale = false;
    }
    if (lowest <= threshold) return round;
    const std::uint32_t end = undo_begin_[round];
    visits += end - undo_begin_[round - 1];
    for (std::uint32_t j = undo_begin_[round - 1]; j < end; ++j) {
      const UndoEntry u = undo_log_[j];
      const std::uint32_t pi = link_fill_[static_cast<std::size_t>(u.link)].probe;
      if (pi == kNever) continue;
      // The link's share after this freeze, as the search would find it
      // with the arrivals on the link: at or under the threshold, the
      // round would queue the link's later flows, the new ones too.
      LinkProbe& p = probe_[pi];
      p.residual = std::max(0.0, u.residual - min_share);
      --p.flows;
      if (p.residual / p.flows <= threshold) return round;
      stale = true;
    }
  }
  return limit;
}

void FlowNetwork::update_share(LinkId link, LinkFill& s) {
  s.share = s.residual / s.flows;
  share_tree_[static_cast<std::size_t>(link)] = leaf_share(s.share);
  mark_leaf_dirty(link);
}

void FlowNetwork::append_flow(LinkFlows& lf, ArrivalEntry e) {
  if (lf.size == lf.capacity) {
    const std::uint32_t capacity = std::max<std::uint32_t>(4, 2 * lf.capacity);
    if (index_pool_.size() + capacity > index_pool_.capacity() && pool_unused_ > 0 &&
        4 * pool_unused_ >= index_pool_.size()) {
      // Repack instead of growing: copy the listed links' runs (every
      // run in use; a link leaves the list only with an empty one) into
      // a buffer of the same capacity, in list order, leaving out the
      // moved-out runs.
      std::vector<ArrivalEntry> packed;
      packed.reserve(index_pool_.capacity());
      for (LinkId l : indexed_links_) {
        LinkFlows& run = link_flows_[static_cast<std::size_t>(l)];
        const auto first = index_pool_.begin() + run.begin;
        run.begin = static_cast<std::uint32_t>(packed.size());
        packed.insert(packed.end(), first, first + run.capacity);
      }
      index_pool_.swap(packed);
      pool_unused_ = 0;
    }
    const auto begin = static_cast<std::uint32_t>(index_pool_.size());
    index_pool_.resize(begin + capacity);
    std::copy_n(index_pool_.begin() + lf.begin, lf.size, index_pool_.begin() + begin);
    pool_unused_ += lf.capacity;
    lf.begin = begin;
    lf.capacity = capacity;
  }
  index_pool_[lf.begin + lf.size++] = e;
}

std::uint64_t FlowNetwork::compact_link(LinkFlows& lf) {
  const std::uint32_t scanned = lf.size;
  ArrivalEntry* const first = index_pool_.data() + lf.begin;
  lf.size = static_cast<std::uint32_t>(
      std::remove_if(first, first + lf.size,
                     [this](const ArrivalEntry& e) {
                       return flow_fill_[e.slot].seq != e.seq;
                     }) -
      first);
  return scanned;
}

#ifndef NDEBUG
void FlowNetwork::check_index() const {
  std::vector<std::vector<ArrivalEntry>> expect(link_flows_.size());
  for (const ArrivalEntry& e : arrival_order_) {
    for (LinkId l : slots_[e.slot].path) expect[static_cast<std::size_t>(l)].push_back(e);
  }
  for (std::size_t l = 0; l < link_flows_.size(); ++l) {
    const LinkFlows& lf = link_flows_[l];
    std::vector<ArrivalEntry> live;
    for (const ArrivalEntry* e = link_begin(lf); e != link_begin(lf) + lf.size; ++e) {
      if (flow_fill_[e->slot].seq == e->seq) live.push_back(*e);
    }
    const bool same = std::equal(
        live.begin(), live.end(), expect[l].begin(), expect[l].end(),
        [](const ArrivalEntry& a, const ArrivalEntry& b) {
          return a.slot == b.slot && a.seq == b.seq;
        });
    if (!same || lf.live != static_cast<int>(expect[l].size()) ||
        (lf.live > 0 && !lf.listed)) {
      throw std::logic_error("FlowNetwork: link->flow index of link " +
                             std::to_string(l) + " differs from a recount (" +
                             std::to_string(lf.live) + " counted, " +
                             std::to_string(expect[l].size()) + " active)");
    }
  }
}
#endif

void FlowNetwork::fill_rates() {
  // --- Progressive filling (max-min fairness). ---
  // Only links actually crossed by an active flow take part; on large
  // topologies this is a small subset.
  const auto& links = topo_.links();
  const std::size_t n = arrival_order_.size();
  std::uint64_t visits = 0;
  std::uint32_t resume = std::exchange(resume_round_, kNever);
  if (link_fill_.size() != links.size() || !fill_clean_) {
    // The first fill, or one after a stall: start over, index included.
    for (const ArrivalEntry& e : arrival_order_) flow_fill_[e.slot].round = 0;
    link_fill_.assign(links.size(), LinkFill{});
    link_flows_.assign(links.size(), LinkFlows{});
    index_pool_.clear();
    pool_unused_ = 0;
    indexed_links_.clear();
    indexed_seq_ = 0;
    freeze_log_.clear();
    round_begin_.assign(1, 0);
    round_share_.clear();
    undo_log_.clear();
    undo_begin_.assign(1, 0);
    build_share_tree(links.size());
  }
  fill_clean_ = false;

  // Index the flows that arrived since the last fill (the tail of the
  // arrival-ordered list), count them on their links, and list those
  // links for the probe with the last fill's flow count: a departure
  // took its flow off the count but not off the log.
  std::size_t first_new = n;
  while (first_new > 0 && arrival_order_[first_new - 1].seq > indexed_seq_) --first_new;
  if (first_new < n) indexed_seq_ = arrival_order_[n - 1].seq;
  probe_.clear();
  for (std::size_t i = first_new; i < n; ++i) {
    const ArrivalEntry e = arrival_order_[i];
    const FlowPath path = flow_fill_[e.slot].path;
    visits += static_cast<std::uint64_t>(path.end - path.begin);
    for (const LinkId* p = path.begin; p != path.end; ++p) {
      const auto li = static_cast<std::size_t>(*p);
      LinkFlows& lf = link_flows_[li];
      LinkFill& s = link_fill_[li];
      if (!lf.listed) {
        // No flow since the last reset, which may have dropped the link
        // with a departed flow's freeze still on it.
        lf.listed = true;
        indexed_links_.push_back(*p);
        s = LinkFill{};
        s.residual = links[li].bandwidth;
      }
      if (s.probe == kNever) {
        s.probe = static_cast<std::uint32_t>(probe_.size());
        probe_.push_back(LinkProbe{*p, lf.live - s.flows, links[li].bandwidth});
      }
      append_flow(lf, e);
      ++lf.live;
      ++s.flows;
      ++probe_[s.probe].flows;
    }
  }
  // `resume` is the lowest round that queued one of the departed flows'
  // links in the last fill.  Before it those links were never at or
  // under the threshold; losing flows only raises their shares, so
  // every earlier round freezes the same flows at the same share.  The
  // arrivals' links, which gain flows, must stay above the thresholds
  // of those rounds at every point.
  resume = std::min(resume, static_cast<std::uint32_t>(round_share_.size() + 1));
  resume = probe_arrivals(resume, visits);
  for (const LinkProbe& p : probe_) {
    link_fill_[static_cast<std::size_t>(p.link)].probe = kNever;
  }

  if (resume == 1) {
    ++fill_resets_;
    // Reset the links with active flows, dropping those whose last flow
    // left (departures compacted their lists to nothing).
    std::size_t kept = 0;
    for (LinkId l : indexed_links_) {
      LinkFlows& lf = link_flows_[static_cast<std::size_t>(l)];
      LinkFill& s = link_fill_[static_cast<std::size_t>(l)];
      if (lf.live == 0) {
        pool_unused_ += lf.capacity;
        lf = LinkFlows{};
        s.flows = 0;  // departures counted it below zero
        continue;
      }
      indexed_links_[kept++] = l;
      s.residual = links[static_cast<std::size_t>(l)].bandwidth;
      s.flows = lf.live;
      s.queued_round = 0;
      s.first_queued = kNever;
      update_share(l, s);
    }
    indexed_links_.resize(kept);
    visits += 2 * kept;
  } else {
    // Roll rounds >= resume back, newest entry first: every link they
    // touched gets the residual it had before its first freeze there,
    // and a flow back for each freeze (departures took theirs off, so
    // the departed flows cancel out).  A link they did not touch has no
    // unfixed flows and kept its +inf leaf.  The last write to a leaf
    // is made at the link's oldest entry, from the restored state.
    const std::uint32_t from = undo_begin_[resume - 1];
    for (std::size_t j = undo_log_.size(); j-- > from;) {
      const UndoEntry u = undo_log_[j];
      LinkFill& s = link_fill_[static_cast<std::size_t>(u.link)];
      s.residual = u.residual;
      ++s.flows;
      s.queued_round = 0;
      if (s.first_queued >= resume) s.first_queued = kNever;
      update_share(u.link, s);
    }
    // The arrivals' links gained flows the rollback did not give them.
    for (const LinkProbe& p : probe_) {
      update_share(p.link, link_fill_[static_cast<std::size_t>(p.link)]);
    }
    visits += undo_log_.size() - from + probe_.size();
  }
  // The flows frozen in the rounds to search are unfixed again; those
  // frozen below `resume` keep their committed rates.
  for (std::size_t j = round_begin_[resume - 1]; j < freeze_log_.size(); ++j) {
    flow_fill_[freeze_log_[j]].round = 0;
  }
  std::size_t unfixed = n - round_begin_[resume - 1];
  fill_rounds_ += resume - 1;
  freeze_log_.resize(round_begin_[resume - 1]);
  round_begin_.resize(resume);
  round_share_.resize(resume - 1);
  undo_log_.resize(undo_begin_[resume - 1]);
  undo_begin_.resize(resume);

  rates_scratch_.resize(n);
  candidates_.assign((n + 63) / 64, 0);
  searched_.assign(candidates_.size(), 0);
  const auto top = static_cast<std::uint32_t>(share_level_.size() - 1);
  for (std::uint32_t round = resume; unfixed > 0; ++round) {
    ++fill_rounds_;
    // Repair the tree above the leaves changed since the last round --
    // or since the last fill: a fill's last round leaves only +inf
    // leaves behind and no repair.
    visits += update_share_tree();
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
    const auto queue_flows = [&](const ArrivalEntry* first, const ArrivalEntry* last) {
      visits += static_cast<std::uint64_t>(last - first);
      for (; first != last; ++first) {
        FlowFill& ff = flow_fill_[first->slot];
        // A departed flow's tombstone, a flow queued this round, or a
        // frozen one.
        if (ff.seq != first->seq || ff.round >= round) continue;
        ff.round = round;
        const std::size_t w = ff.index / 64;
        first_word = std::min(first_word, w);
        last_word = std::max(last_word, w);
        candidates_[w] |= std::uint64_t{1} << (ff.index % 64);
      }
    };
    const auto queue_link = [&](LinkId l, LinkFill& s, std::uint64_t after_seq) {
      s.queued_round = round;
      s.first_queued = std::min(s.first_queued, round);
      const LinkFlows& lf = link_flows_[static_cast<std::size_t>(l)];
      const ArrivalEntry* const first = link_begin(lf);
      const ArrivalEntry* const last = first + lf.size;
      if (after_seq == 0) {  // a seed: every unfixed flow
        queue_flows(first, last);
        return;
      }
      queue_flows(std::upper_bound(first, last, after_seq,
                                   [](std::uint64_t seq, const ArrivalEntry& e) {
                                     return seq < e.seq;
                                   }),
                  last);
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
        queue_link(static_cast<LinkId>(node), link_fill_[node], 0);
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
        const std::uint64_t bit = candidates_[w] & (~candidates_[w] + 1);
        candidates_[w] ^= bit;
        const FlowSlot slot = arrival_order_[fi].slot;
        FlowFill& ff = flow_fill_[slot];
        const FlowPath path = ff.path;
        // The bottleneck test, on each link's residual / flows (kept
        // current by every change below).
        const bool bottleneck = std::any_of(path.begin, path.end, [&](LinkId l) {
          ++visits;
          return link_fill_[static_cast<std::size_t>(l)].share <= threshold;
        });
        if (!bottleneck) continue;
        rates_scratch_[fi] = min_share;
        searched_[w] |= bit;
        ff.round = kFrozen;
        freeze_log_.push_back(slot);
        ++frozen;
        visits += static_cast<std::uint64_t>(path.end - path.begin);
        for (const LinkId* p = path.begin; p != path.end; ++p) {
          LinkFill& s = link_fill_[static_cast<std::size_t>(*p)];
          undo_log_.push_back(UndoEntry{*p, s.residual});
          s.residual = std::max(0.0, s.residual - min_share);
          --s.flows;
          update_share(*p, s);
          if (s.share <= threshold && s.flows > 0 && s.queued_round != round) {
            // Flows queued for this link from here on stay queued, so
            // one scan per link and round suffices.
            queue_link(*p, s, ff.seq);
          }
        }
      }
    }
    if (frozen == 0) {
      report_fill_stall("no flow crosses a bottleneck", unfixed, n);
    }
    unfixed -= frozen;
    round_begin_.push_back(static_cast<std::uint32_t>(freeze_log_.size()));
    undo_begin_.push_back(static_cast<std::uint32_t>(undo_log_.size()));
    round_share_.push_back(min_share);
  }
  fill_visits_ += visits;
  fill_clean_ = true;
#ifndef NDEBUG
  check_index();
  // Flows frozen below `resume` were not searched: their committed rate
  // is the one the search gave them in an earlier fill.
  std::vector<FlowRate> fill(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ActiveFlow& f = slots_[arrival_order_[i].slot];
    const bool searched = (searched_[i / 64] >> (i % 64) & 1) != 0;
    fill[i] = FlowRate{f.path, searched ? rates_scratch_[i] : f.rate};
  }
  if (const std::string err = check_max_min(links, fill); !err.empty()) {
    throw std::logic_error("FlowNetwork: fill is not max-min fair: " + err);
  }
#endif
}

void FlowNetwork::resolve() {
  // Nothing to allocate once the last flow has departed; not counted.
  if (active_count_ == 0) return;
  ++resolves_;
  const simt::Time now = engine_.now();

  // Compact stale entries (departed flows; a recycled slot is
  // recognised by its seq) out of the arrival-ordered list, which then
  // holds exactly the active flows in commit order -- no per-resolve
  // sort.  Entries before the first departed or arrived flow keep
  // their place and arrival index.
  std::size_t live = std::min(reindex_from_, arrival_order_.size());
  for (std::size_t i = live; i < arrival_order_.size(); ++i) {
    const ArrivalEntry e = arrival_order_[i];
    FlowFill& ff = flow_fill_[e.slot];
    if (ff.seq != e.seq) continue;
    ff.index = static_cast<std::uint32_t>(live);
    arrival_order_[live++] = e;
  }
  arrival_order_.resize(live);
  reindex_from_ = kNoReindex;
  if (live != active_count_) {
    throw std::logic_error("FlowNetwork: arrival list out of sync (" +
                           std::to_string(live) + " live entries, " +
                           std::to_string(active_count_) + " active flows)");
  }

  fill_rates();

  // Commit the flows the fill searched, in arrival order: materialize
  // progress under the *old* rate up to now, install the new rate, and
  // move the flow's completion event to the new finish time (O(log n)
  // each on the engine's indexed queue).  A flow frozen in a rolled-back
  // round is not visited: its rate is bit-identical to its committed one.
  for (std::size_t w = 0; w < searched_.size(); ++w) {
    for (std::uint64_t bits = searched_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
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
      ++rate_changes_;
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
}

std::vector<FlowRate> FlowNetwork::allocation() const {
  std::vector<FlowRate> out;
  for (const ArrivalEntry& e : arrival_order_) {
    const ActiveFlow& f = slots_[e.slot];
    if (!f.in_use || f.seq != e.seq) continue;
    out.push_back(FlowRate{f.path, f.rate});
  }
  return out;
}

void FlowNetwork::on_flow_complete(FlowSlot slot) {
  ActiveFlow& f = slots_[slot];
  f.completion_event = 0;
  assert(remaining_at(f, engine_.now()) < kDoneEpsilonBytes &&
         "completion event fired with bytes left");
  // Unindex: the flow's list entries become tombstones, its links count
  // one flow fewer (the rollback adds it back with its freeze), and the
  // next fill may resume below the first round that queued any of them.
  FlowFill& ff = flow_fill_[slot];
  ff.seq = 0;
  reindex_from_ = std::min<std::size_t>(reindex_from_, ff.index);
  std::uint64_t visits = f.path.size();
  for (LinkId l : f.path) {
    const auto li = static_cast<std::size_t>(l);
    LinkFlows& lf = link_flows_[li];
    --lf.live;
    --link_fill_[li].flows;
    resume_round_ = std::min(resume_round_, link_fill_[li].first_queued);
    if (2 * static_cast<std::uint32_t>(lf.live) <= lf.size) {
      visits += compact_link(lf);
    }
  }
  fill_visits_ += visits;
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
