#include "core/beff/beff.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/beff/sizes.hpp"
#include "obs/prof.hpp"
#include "parmsg/cart.hpp"
#include "robust/fault.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace balbench::beff {

const char* method_name(Method m) {
  switch (m) {
    case Method::Sendrecv: return "Sendrecv";
    case Method::Alltoallv: return "Alltoallv";
    case Method::Nonblocking: return "Nonblocking";
  }
  return "?";
}

namespace {

constexpr int kTagToRight = 0;
constexpr int kTagToLeft = 1;

/// One communication step of `pat` with message size L.  `phases`
/// allows the combined Cartesian patterns to exchange along several
/// dimension-patterns within one iteration.
void run_iteration(parmsg::Comm& c, std::span<const CommPattern* const> phases,
                   std::int64_t L, Method method) {
  const int me = c.rank();
  const auto n = static_cast<std::size_t>(L);
  switch (method) {
    case Method::Sendrecv:
      for (const CommPattern* pat : phases) {
        const int left = pat->left[static_cast<std::size_t>(me)];
        const int right = pat->right[static_cast<std::size_t>(me)];
        // Paper: send to the left neighbour, receive from the right;
        // afterwards send back to the right, receive from the left.
        c.sendrecv(left, nullptr, n, kTagToLeft, right, nullptr, n, kTagToLeft);
        c.sendrecv(right, nullptr, n, kTagToRight, left, nullptr, n, kTagToRight);
      }
      break;
    case Method::Nonblocking: {
      std::vector<parmsg::Request> reqs;
      reqs.reserve(phases.size() * 4);
      for (const CommPattern* pat : phases) {
        const int left = pat->left[static_cast<std::size_t>(me)];
        const int right = pat->right[static_cast<std::size_t>(me)];
        reqs.push_back(c.irecv(right, nullptr, n, kTagToLeft));
        reqs.push_back(c.irecv(left, nullptr, n, kTagToRight));
        reqs.push_back(c.isend(left, nullptr, n, kTagToLeft));
        reqs.push_back(c.isend(right, nullptr, n, kTagToRight));
      }
      c.waitall(reqs);
      break;
    }
    case Method::Alltoallv: {
      const auto p = static_cast<std::size_t>(c.size());
      std::vector<std::size_t> scounts(p, 0);
      std::vector<std::size_t> zeros(p, 0);
      for (const CommPattern* pat : phases) {
        scounts[static_cast<std::size_t>(pat->left[static_cast<std::size_t>(me)])] += n;
        scounts[static_cast<std::size_t>(pat->right[static_cast<std::size_t>(me)])] += n;
      }
      // Ring symmetry: the bytes I receive from a peer equal the bytes
      // I send to it.
      c.alltoallv(nullptr, scounts, zeros, nullptr, scounts, zeros);
      break;
    }
  }
}

/// Times `looplength` iterations and returns the maximum process time
/// ("maximum time on each process", paper Sec. 4).
double measure_loop(parmsg::Comm& c, std::span<const CommPattern* const> phases,
                    std::int64_t L, Method method, int looplength,
                    bool fast_forward) {
  c.barrier();
  const double t0 = c.wtime();
  run_iteration(c, phases, L, method);
  if (fast_forward) {
    if (looplength > 1) c.advance((c.wtime() - t0) * (looplength - 1));
  } else {
    for (int i = 1; i < looplength; ++i) run_iteration(c, phases, L, method);
  }
  return c.allreduce_max(c.wtime() - t0);
}

int adapt_looplength(int looplength, double loop_time, const BeffOptions& opt) {
  if (loop_time <= 0.0) return opt.start_looplength;
  const double scaled = looplength * opt.loop_target_time / loop_time;
  const auto next = static_cast<int>(std::llround(scaled));
  return std::clamp(next, 1, opt.start_looplength);
}

/// One measurement cell: a single (pattern, method) pair swept across
/// all message sizes (the looplength adaptation chains through the
/// sizes, so the size sweep stays inside the cell).  Fills `bw` and
/// `looplen` (pre-sized to sizes.size()) on rank 0; every rank
/// computes identical values via allreduce_max.
void measure_pattern_method(parmsg::Comm& c, const CommPattern& pat,
                            const std::vector<std::int64_t>& sizes,
                            const BeffOptions& opt, Method method,
                            std::vector<double>* bw_out,
                            std::vector<int>* looplen_out) {
  const CommPattern* phase[] = {&pat};
  const int reps = opt.dedupe_repetitions ? 1 : opt.repetitions;
  int looplength = opt.start_looplength;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const std::int64_t L = sizes[si];
    double min_time = std::numeric_limits<double>::max();
    for (int rep = 0; rep < reps; ++rep) {
      min_time = std::min(min_time, measure_loop(c, phase, L, method,
                                                 looplength, opt.fast_forward));
    }
    const double bw = static_cast<double>(L) *
                      static_cast<double>(pat.total_messages()) * looplength /
                      min_time;
    if (bw_out != nullptr) {
      (*bw_out)[si] = bw;
      (*looplen_out)[si] = looplength;
    }
    looplength = adapt_looplength(looplength, min_time, opt);
  }
}

/// Best bandwidth of an analysis pattern at L (max over Sendrecv and
/// Nonblocking; Alltoallv adds nothing for these diagnostics).
double measure_analysis_pattern(parmsg::Comm& c,
                                std::span<const CommPattern* const> phases,
                                std::int64_t L, const BeffOptions& opt) {
  std::int64_t msgs = 0;
  for (const CommPattern* pat : phases) msgs += pat->total_messages();
  double best = 0.0;
  for (Method m : {Method::Sendrecv, Method::Nonblocking}) {
    const int looplength = 4;
    const double t = measure_loop(c, phases, L, m, looplength, opt.fast_forward);
    best = std::max(best, static_cast<double>(L) * static_cast<double>(msgs) *
                              looplength / t);
  }
  return best;
}

CommPattern pairing_pattern(int nprocs, bool interleaved, std::string name) {
  CommPattern pat;
  pat.name = std::move(name);
  pat.left.resize(static_cast<std::size_t>(nprocs));
  pat.right.resize(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    int partner;
    if (interleaved) {
      partner = (r % 2 == 0) ? std::min(r + 1, nprocs - 1) : r - 1;
    } else if (nprocs % 2 == 1 && r == nprocs - 1) {
      partner = r;  // odd process count: the last rank pairs with itself
    } else {
      const int half = nprocs / 2;
      partner = r < half ? r + half : r - half;
    }
    pat.left[static_cast<std::size_t>(r)] = partner;
    pat.right[static_cast<std::size_t>(r)] = partner;
  }
  return pat;
}

CommPattern worst_cycle_pattern(int nprocs) {
  // One ring over all processes, ordered with a large coprime stride so
  // that consecutive ring neighbours are maximally distant ranks.
  int stride = nprocs / 2 + 1;
  while (std::gcd(stride, nprocs) != 1) ++stride;
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    order.push_back(static_cast<int>((static_cast<long>(i) * stride) % nprocs));
  }
  CommPattern pat;
  pat.name = "worst-cycle";
  pat.left.resize(static_cast<std::size_t>(nprocs));
  pat.right.resize(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    const int me = order[static_cast<std::size_t>(i)];
    pat.right[static_cast<std::size_t>(me)] =
        order[static_cast<std::size_t>((i + 1) % nprocs)];
    pat.left[static_cast<std::size_t>(me)] =
        order[static_cast<std::size_t>((i + nprocs - 1) % nprocs)];
  }
  return pat;
}

CommPattern cart_dim_pattern(const std::vector<int>& dims, int dim, int nprocs) {
  CommPattern pat;
  pat.name = "cart-dim" + std::to_string(dim);
  pat.left.resize(static_cast<std::size_t>(nprocs));
  pat.right.resize(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    const auto s = parmsg::cart_shift(r, dims, dim);
    pat.right[static_cast<std::size_t>(r)] = s.dest;
    pat.left[static_cast<std::size_t>(r)] = s.source;
  }
  return pat;
}

/// Ping-pong between the first two MPI processes at L_max.
void measure_pingpong(parmsg::Comm& c, std::int64_t lmax, double* bw_out) {
  c.barrier();
  const int looplength = 8;
  double local = 0.0;
  if (c.rank() == 0) {
    const double t0 = c.wtime();
    for (int i = 0; i < looplength; ++i) {
      c.send(1, nullptr, static_cast<std::size_t>(lmax), 9);
      c.recv(1, nullptr, static_cast<std::size_t>(lmax), 9);
    }
    local = c.wtime() - t0;
  } else if (c.rank() == 1) {
    for (int i = 0; i < looplength; ++i) {
      c.recv(0, nullptr, static_cast<std::size_t>(lmax), 9);
      c.send(0, nullptr, static_cast<std::size_t>(lmax), 9);
    }
  }
  const double t = c.allreduce_max(local);
  // One message of L per half round trip.
  const double bw = static_cast<double>(lmax) * 2.0 * looplength / t;
  if (bw_out != nullptr) *bw_out = bw;
}

/// Result slot of one measurement cell.  Pattern cells fill `bw` and
/// `looplength` (one entry per message size); analysis cells fill
/// `analysis_bw`.  Every cell records its virtual duration.
struct CellOutput {
  std::vector<double> bw;
  std::vector<int> looplength;
  double analysis_bw = 0.0;
  double seconds = 0.0;
  obs::MetricsSnapshot metrics;  // filled when collect_metrics is on
};

using CellBody = std::function<void(parmsg::Comm&, CellOutput*)>;

void check_capacity(int nprocs, int max_processes) {
  if (nprocs > max_processes) {
    throw std::invalid_argument("run_beff: nprocs exceeds transport capacity");
  }
}

}  // namespace

/// CellSweep's state: every cell body, its label and its result slot.
struct CellSweep::Impl {
  Impl(int nprocs, const BeffOptions& opt)
      : nprocs_(nprocs), options_(opt) {
    if (nprocs < 2) {
      throw std::invalid_argument("run_beff: need at least 2 processes");
    }
    result_.nprocs = nprocs;
    result_.lmax = opt.lmax_override > 0 ? opt.lmax_override
                                         : lmax_for_memory(opt.memory_per_proc);
    result_.sizes = message_sizes(result_.lmax);

    patterns_ = averaging_patterns(nprocs, opt.random_seed);
    result_.patterns.resize(patterns_.size());
    for (std::size_t i = 0; i < patterns_.size(); ++i) {
      result_.patterns[i].name = patterns_[i].name;
      result_.patterns[i].is_random = patterns_[i].is_random;
      result_.patterns[i].sizes.resize(result_.sizes.size());
    }

    // Cells [0, 3*patterns): one per (pattern, method); the size sweep
    // stays inside the cell because looplength adaptation chains
    // through the sizes.
    for (std::size_t pi = 0; pi < patterns_.size(); ++pi) {
      for (int m = 0; m < kNumMethods; ++m) {
        cells_.push_back([this, pi, m](parmsg::Comm& c, CellOutput* out) {
          measure_pattern_method(c, patterns_[pi], result_.sizes, options_,
                                 static_cast<Method>(m),
                                 out != nullptr ? &out->bw : nullptr,
                                 out != nullptr ? &out->looplength : nullptr);
        });
        labels_.push_back(patterns_[pi].name + '/' +
                          method_name(static_cast<Method>(m)));
      }
    }

    analysis_base_ = cells_.size();
    if (options_.measure_analysis) {
      worst_cycle_ = worst_cycle_pattern(nprocs);
      bisect_paired_ =
          pairing_pattern(nprocs, /*interleaved=*/false, "bisection-paired");
      bisect_interleaved_ =
          pairing_pattern(nprocs, /*interleaved=*/true, "bisection-interleaved");
      cart2d_dims_ = parmsg::dims_create(nprocs, 2);
      cart3d_dims_ = parmsg::dims_create(nprocs, 3);
      for (int d = 0; d < 2; ++d) {
        cart2d_pats_.push_back(cart_dim_pattern(cart2d_dims_, d, nprocs));
      }
      for (int d = 0; d < 3; ++d) {
        cart3d_pats_.push_back(cart_dim_pattern(cart3d_dims_, d, nprocs));
      }

      cells_.push_back([this](parmsg::Comm& c, CellOutput* out) {
        measure_pingpong(c, result_.lmax,
                         out != nullptr ? &out->analysis_bw : nullptr);
      });
      labels_.push_back("ping-pong");
      add_analysis_cell({&worst_cycle_});
      add_analysis_cell({&bisect_paired_});
      add_analysis_cell({&bisect_interleaved_});
      for (const auto& p : cart2d_pats_) add_analysis_cell({&p});
      add_analysis_cell({&cart2d_pats_[0], &cart2d_pats_[1]});
      for (const auto& p : cart3d_pats_) add_analysis_cell({&p});
      add_analysis_cell({&cart3d_pats_[0], &cart3d_pats_[1], &cart3d_pats_[2]});
    }

    slots_.resize(cells_.size());
    for (std::size_t i = 0; i < analysis_base_; ++i) {
      slots_[i].bw.resize(result_.sizes.size());
      slots_[i].looplength.resize(result_.sizes.size());
    }
    if (options_.fault_plan != nullptr) statuses_.resize(cells_.size());
  }

  Impl(const Impl&) = delete;  // cell bodies capture `this`

  /// With a fault plan active the outcome lands in statuses_[i].
  void run_cell(std::size_t i, parmsg::Transport& transport) {
    if (options_.fault_plan == nullptr) {
      run_cell_once(i, transport);
      return;
    }
    transport.set_fault_plan(options_.fault_plan);
    statuses_[i] = robust::run_with_retry(
        options_.fault_plan->retry,
        [&](int attempt) {
          transport.set_fault_attempt(attempt);
          run_cell_once(i, transport);
        },
        [&] { reset_slot(i); });
    transport.set_fault_plan(nullptr);
  }

  /// Restores slot `i` to its pre-run state (pre-sized, zeroed) so a
  /// retry attempt or a final failure never leaks partial results into
  /// the ordered reduction.
  void reset_slot(std::size_t i) {
    CellOutput& slot = slots_[i];
    slot = CellOutput{};
    if (i < analysis_base_) {
      slot.bw.resize(result_.sizes.size());
      slot.looplength.resize(result_.sizes.size());
    }
  }

  void run_cell_once(std::size_t i, parmsg::Transport& transport) {
    // Host wall-clock scope (observe-only, DESIGN.md Sec. 10.2): no-op
    // unless a profiler is attached; never feeds the result.
    obs::prof::Scope prof_scope("beff", labels_[i]);
    CellOutput& slot = slots_[i];
    const CellBody& body = cells_[i];
    // Per-cell registry: the cell owns the only reference, so metric
    // increments never contend across host threads, and the snapshot
    // lands in this cell's slot for the ordered merge in finish().
    obs::Registry registry;
    if (options_.collect_metrics) transport.attach_metrics(&registry);
    transport.label_next_session("cell " + std::to_string(i) + ": " +
                                 labels_[i]);
    try {
      transport.run(nprocs_, [&](parmsg::Comm& c) {
        const bool is_root = c.rank() == 0;
        const double t0 = c.wtime();
        body(c, is_root ? &slot : nullptr);
        if (is_root) slot.seconds = c.wtime() - t0;
      });
    } catch (...) {
      // The registry dies with this attempt; never leave the transport
      // pointing at it (the retry layer reuses the transport).
      if (options_.collect_metrics) transport.attach_metrics(nullptr);
      throw;
    }
    if (options_.collect_metrics) {
      transport.attach_metrics(nullptr);
      slot.metrics = registry.snapshot();
    }
  }

  /// Ordered reduction over the slots (paper Sec. 4 aggregation).
  /// Strictly index-ordered so floating-point results cannot depend on
  /// the execution schedule.
  BeffResult finish() {
    for (std::size_t pi = 0; pi < patterns_.size(); ++pi) {
      auto& pm = result_.patterns[pi];
      for (std::size_t si = 0; si < result_.sizes.size(); ++si) {
        auto& sm = pm.sizes[si];
        sm.size = result_.sizes[si];
        for (int m = 0; m < kNumMethods; ++m) {
          const CellOutput& cell =
              slots_[pi * static_cast<std::size_t>(kNumMethods) +
                     static_cast<std::size_t>(m)];
          const double bw = cell.bw[si];
          sm.method_bw[static_cast<std::size_t>(m)] = bw;
          if (bw > sm.best_bw) {
            sm.best_bw = bw;
            sm.looplength = cell.looplength[si];
          }
        }
      }
      std::vector<double> best;
      best.reserve(pm.sizes.size());
      for (const auto& sm : pm.sizes) best.push_back(sm.best_bw);
      pm.avg_bw = util::sum(best) / static_cast<double>(kNumMessageSizes);
      pm.bw_at_lmax = pm.sizes.back().best_bw;
    }

    if (options_.measure_analysis) {
      auto& a = result_.analysis;
      std::size_t id = analysis_base_;
      a.pingpong_bw = slots_[id++].analysis_bw;
      a.worst_cycle_bw = slots_[id++].analysis_bw;
      a.bisection_paired_bw = slots_[id++].analysis_bw;
      a.bisection_interleaved_bw = slots_[id++].analysis_bw;
      a.cart2d_dims = cart2d_dims_;
      for (std::size_t d = 0; d < cart2d_pats_.size(); ++d) {
        a.cart2d_per_dim_bw.push_back(slots_[id++].analysis_bw);
      }
      a.cart2d_combined_bw = slots_[id++].analysis_bw;
      a.cart3d_dims = cart3d_dims_;
      for (std::size_t d = 0; d < cart3d_pats_.size(); ++d) {
        a.cart3d_per_dim_bw.push_back(slots_[id++].analysis_bw);
      }
      a.cart3d_combined_bw = slots_[id++].analysis_bw;
    }

    double total_seconds = 0.0;
    for (const auto& s : slots_) total_seconds += s.seconds;
    result_.benchmark_seconds = total_seconds;

    if (options_.fault_plan != nullptr) {
      result_.cell_status = std::move(statuses_);
      result_.cell_labels = labels_;
    }

    if (options_.collect_metrics) {
      // Strictly cell-index-ordered merge: floating-point sums must not
      // depend on which host thread finished first.
      for (const auto& s : slots_) result_.metrics.merge(s.metrics);
    }

    std::vector<double> ring_avgs;
    std::vector<double> random_avgs;
    std::vector<double> ring_lmax;
    std::vector<double> random_lmax;
    for (const auto& pm : result_.patterns) {
      (pm.is_random ? random_avgs : ring_avgs).push_back(pm.avg_bw);
      (pm.is_random ? random_lmax : ring_lmax).push_back(pm.bw_at_lmax);
    }
    result_.rings_logavg = util::logavg(ring_avgs);
    result_.random_logavg = util::logavg(random_avgs);
    result_.b_eff = util::logavg2(result_.rings_logavg, result_.random_logavg);
    result_.rings_logavg_at_lmax = util::logavg(ring_lmax);
    result_.random_logavg_at_lmax = util::logavg(random_lmax);
    result_.b_eff_at_lmax = util::logavg2(result_.rings_logavg_at_lmax,
                                          result_.random_logavg_at_lmax);
    return std::move(result_);
  }

  void add_analysis_cell(std::vector<const CommPattern*> phases) {
    std::string label;
    for (const CommPattern* p : phases) {
      if (!label.empty()) label += '+';
      label += p->name;
    }
    labels_.push_back(std::move(label));
    cells_.push_back(
        [this, phases = std::move(phases)](parmsg::Comm& c, CellOutput* out) {
          const double bw =
              measure_analysis_pattern(c, phases, result_.lmax, options_);
          if (out != nullptr) out->analysis_bw = bw;
        });
  }

  int nprocs_;
  BeffOptions options_;
  BeffResult result_;
  std::vector<CommPattern> patterns_;
  CommPattern worst_cycle_;
  CommPattern bisect_paired_;
  CommPattern bisect_interleaved_;
  std::vector<int> cart2d_dims_;
  std::vector<int> cart3d_dims_;
  std::vector<CommPattern> cart2d_pats_;
  std::vector<CommPattern> cart3d_pats_;
  std::size_t analysis_base_ = 0;
  std::vector<CellBody> cells_;
  std::vector<std::string> labels_;  // session label per cell, same index
  std::vector<CellOutput> slots_;
  std::vector<robust::CellStatus> statuses_;  // sized only with a fault plan
};

CellSweep::CellSweep(int nprocs, const BeffOptions& options)
    : impl_(std::make_unique<Impl>(nprocs, options)) {}
CellSweep::~CellSweep() = default;
std::size_t CellSweep::num_cells() const { return impl_->cells_.size(); }
const std::string& CellSweep::label(std::size_t i) const {
  return impl_->labels_[i];
}
void CellSweep::run_cell(std::size_t i, parmsg::Transport& transport) {
  impl_->run_cell(i, transport);
}
BeffResult CellSweep::finish() { return impl_->finish(); }

BeffResult run_beff(parmsg::Transport& transport, int nprocs,
                    const BeffOptions& options) {
  CellSweep sweep(nprocs, options);
  check_capacity(nprocs, transport.max_processes());
  for (std::size_t i = 0; i < sweep.num_cells(); ++i) {
    sweep.run_cell(i, transport);
  }
  return sweep.finish();
}

BeffResult run_beff(const TransportFactory& make_transport, int nprocs,
                    const BeffOptions& options) {
  CellSweep sweep(nprocs, options);
  check_capacity(nprocs, make_transport()->max_processes());
  util::parallel_for(options.jobs, sweep.num_cells(),
                     [&](std::size_t i) { sweep.run_cell(i, *make_transport()); });
  return sweep.finish();
}

std::string protocol_report(const BeffResult& r) {
  std::ostringstream os;
  os << "b_eff protocol: " << r.nprocs << " processes, L_max "
     << util::format_bytes(r.lmax) << ", 21 message sizes, "
     << r.patterns.size() << " patterns\n";
  os << "benchmark virtual time: " << util::format_seconds(r.benchmark_seconds)
     << "\n\n";

  util::Table summary({"pattern", "kind", "avg bw\nMByte/s", "bw at L_max\nMByte/s",
                       "per proc\nMByte/s"});
  for (const auto& pm : r.patterns) {
    summary.add_row({pm.name, pm.is_random ? "random" : "ring",
                     util::format_mbps(pm.avg_bw),
                     util::format_mbps(pm.bw_at_lmax),
                     util::format_mbps(pm.bw_at_lmax / r.nprocs, 1)});
  }
  summary.render(os);

  os << "\nbandwidth per process over message size (best method), MByte/s\n";
  std::vector<std::string> headers{"L"};
  for (const auto& pm : r.patterns) headers.push_back(pm.name);
  util::Table detail(headers);
  for (std::size_t si = 0; si < r.sizes.size(); ++si) {
    std::vector<std::string> row{util::format_bytes(r.sizes[si])};
    for (const auto& pm : r.patterns) {
      row.push_back(util::format_mbps(pm.sizes[si].best_bw / r.nprocs, 2));
    }
    detail.add_row(std::move(row));
  }
  detail.render(os);

  os << "\nmethod comparison at L_max (full-system MByte/s, ring of all)\n";
  const auto& allring = r.patterns[5];
  for (int m = 0; m < kNumMethods; ++m) {
    os << "  " << method_name(static_cast<Method>(m)) << ": "
       << util::format_mbps(allring.sizes.back().method_bw[static_cast<std::size_t>(m)])
       << "\n";
  }

  os << "\naggregation:\n";
  os << "  logavg ring patterns   = " << util::format_mbps(r.rings_logavg) << "\n";
  os << "  logavg random patterns = " << util::format_mbps(r.random_logavg) << "\n";
  os << "  b_eff                  = " << util::format_mbps(r.b_eff) << " MByte/s ("
     << util::format_mbps(r.per_proc(), 1) << " per proc)\n";
  os << "  b_eff at L_max         = " << util::format_mbps(r.b_eff_at_lmax)
     << " MByte/s (" << util::format_mbps(r.per_proc_at_lmax(), 1)
     << " per proc, rings only: "
     << util::format_mbps(r.per_proc_at_lmax_rings(), 1) << ")\n";

  const auto& a = r.analysis;
  if (a.pingpong_bw > 0.0) {
    os << "\nanalysis patterns (at L_max):\n";
    os << "  ping-pong                : " << util::format_mbps(a.pingpong_bw) << " MByte/s\n";
    os << "  worst-case cycle         : " << util::format_mbps(a.worst_cycle_bw) << "\n";
    os << "  bisection (paired)       : " << util::format_mbps(a.bisection_paired_bw) << "\n";
    os << "  bisection (interleaved)  : " << util::format_mbps(a.bisection_interleaved_bw) << "\n";
    auto cart_line = [&](const char* label, const std::vector<int>& dims,
                         const std::vector<double>& per_dim, double combined) {
      os << "  " << label << " (";
      for (std::size_t i = 0; i < dims.size(); ++i) {
        os << dims[i] << (i + 1 < dims.size() ? "x" : "");
      }
      os << "): per-dim";
      for (double b : per_dim) os << ' ' << util::format_mbps(b);
      os << ", together " << util::format_mbps(combined) << "\n";
    };
    cart_line("Cartesian 2-D", a.cart2d_dims, a.cart2d_per_dim_bw, a.cart2d_combined_bw);
    cart_line("Cartesian 3-D", a.cart3d_dims, a.cart3d_per_dim_bw, a.cart3d_combined_bw);
  }
  return os.str();
}

}  // namespace balbench::beff
