#include "core/beffio/beffio.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "obs/prof.hpp"
#include "pario/file.hpp"
#include "robust/fault.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace balbench::beffio {

using util::kMiB;

const char* access_method_name(AccessMethod m) {
  switch (m) {
    case AccessMethod::InitialWrite: return "initial write";
    case AccessMethod::Rewrite: return "rewrite";
    case AccessMethod::Read: return "read";
  }
  return "?";
}

double AccessMethodResult::weighted_bandwidth() const {
  // Scatter type double-weighted (paper Sec. 5.1).
  double weights[kNumPatternTypes] = {2.0, 1.0, 1.0, 1.0, 1.0};
  double bw[kNumPatternTypes];
  for (int t = 0; t < kNumPatternTypes; ++t) {
    bw[t] = types[static_cast<std::size_t>(t)].bandwidth();
  }
  return util::weighted_mean(bw, weights);
}

namespace {

/// Probe iterations before fast-forward batching starts.
constexpr std::int64_t kProbeIterations = 1;
/// Fraction of the remaining pattern time per macro-step.
constexpr double kBatchFraction = 0.6;

/// Per-rank driver for one b_eff_io measurement chain.  A chain is a
/// dependency-closed subset of the (access method, pattern type)
/// space; the chain runner calls measure_termination_cost() once per
/// session, then run_type()/run_random_extension() in chain order.
class Driver {
 public:
  Driver(parmsg::Comm& c, pario::IoContext& ctx, const BeffIoOptions& opt,
         const std::vector<IoPattern>& table, BeffIoResult* out)
      : c_(c), ctx_(ctx), opt_(opt), table_(table), out_(out),
        root_(c.rank() == 0) {}

  /// L_SEG fixed by the initial-write pass of type 3 (paper Sec. 5.4).
  [[nodiscard]] std::int64_t segment_bytes() const { return segment_bytes_; }

  void measure_termination_cost() {
    // Warm-up plus a timed round.
    termination_check(false);
    const double t0 = c_.wtime();
    termination_check(false);
    t_check_ = c_.wtime() - t0;
  }

  // ---- Sec. 6 extension: random access patterns ----------------------
  // "we should examine whether random access patterns can be included
  // into the b_eff_io benchmark."  Non-collective 32 kB accesses at
  // seeded random offsets in a shared preallocated file; measured for
  // a fixed 1/64 share of T/3 per method, reported separately.
  void run_random_extension(AccessMethod method) {
    const bool writing = method != AccessMethod::Read;
    const std::int64_t chunk = 32 * 1024;
    const std::int64_t extent =
        std::max<std::int64_t>(64, c_.size()) * 64 * chunk;
    auto mode = method == AccessMethod::InitialWrite ? pario::OpenMode::Create
                                                     : pario::OpenMode::ReadWrite;
    c_.barrier();
    const double t_open = c_.wtime();
    auto file = pario::File::open(c_, ctx_, opt_.file_prefix + "_rand", mode);
    util::Xoshiro256 rng(opt_.random_seed +
                         static_cast<std::uint64_t>(c_.rank()) * 977 +
                         static_cast<std::uint64_t>(method) * 131071);
    const double share = opt_.scheduled_time / 3.0 / 64.0;
    const double deadline = c_.wtime() + share;
    std::int64_t bytes_rank = 0;
    // Random offsets defeat the batched fast-forward (every call has a
    // different target), so this extension runs its calls one by one
    // with a capped call budget.
    int guard = 0;
    bool stop = false;
    while (!stop) {
      const std::int64_t slots = extent / chunk;
      const std::int64_t off = static_cast<std::int64_t>(
                                   rng.below(static_cast<std::uint64_t>(slots))) *
                               chunk;
      if (writing) {
        file.write_at(off, chunk);
      } else {
        file.read_at(off, chunk);
      }
      bytes_rank += chunk;
      stop = termination_check(c_.wtime() >= deadline || ++guard >= 512);
    }
    if (writing) file.sync();
    file.close();
    c_.barrier();
    const double seconds = c_.wtime() - t_open;
    const double total = c_.allreduce_sum(static_cast<double>(bytes_rank));
    if (root_ && out_ != nullptr) {
      out_->random_extension[static_cast<std::size_t>(method)] = total / seconds;
    }
  }

 private:
  // ---- termination check (paper Sec. 5.4) ---------------------------
  // The time-driven loop's stop decision is computed at rank 0 after a
  // barrier and broadcast to all ranks.
  bool termination_check(bool stop_wanted) {
    c_.barrier();
    int flag = (root_ && stop_wanted) ? 1 : 0;
    c_.bcast(&flag, sizeof flag, 0);
    return flag != 0;
  }

  // ---- time-driven pattern loop --------------------------------------
  // `do_calls(k)` performs k back-to-back I/O calls and returns the
  // bytes moved per rank; it may clamp k (file wrap) via max_calls.
  template <typename DoCalls, typename MaxCalls>
  std::int64_t time_driven(const IoPattern& p, double deadline,
                           DoCalls&& do_calls, MaxCalls&& max_calls,
                           std::int64_t* bytes_per_rank) {
    std::int64_t calls = 0;
    calls_steps_ = 0;
    const double t_start = c_.wtime();
    bool stop = false;
    while (!stop) {
      // The batched repeat factor must be identical on every rank
      // (collective calls take it as an argument), so rank 0 decides
      // and broadcasts -- mirroring the paper's root-side termination
      // logic.
      std::int64_t k = 1;
      if (opt_.termination == TerminationMode::GeometricSeries) {
        // Proposed Sec. 5.4 algorithm: repeat factors double between
        // checks; every rank derives the same series locally.
        k = std::min<std::int64_t>(std::int64_t{1} << std::min(calls_steps_, 30),
                                   1'000'000'000);
      } else if (root_ && calls >= kProbeIterations) {
        const double elapsed = c_.wtime() - t_start;
        const double t_iter = elapsed / static_cast<double>(calls);
        const double remaining = deadline - c_.wtime();
        if (t_iter > 0.0 && remaining > 0.0) {
          k = std::max<std::int64_t>(
              1, static_cast<std::int64_t>(remaining * kBatchFraction /
                                           t_iter));
          k = std::min<std::int64_t>(k, 1'000'000'000);
        }
      }
      if (opt_.termination == TerminationMode::PerIterationCheck) {
        c_.bcast(&k, sizeof k, 0);
      }
      k = std::max<std::int64_t>(1, std::min(k, max_calls()));
      *bytes_per_rank += do_calls(k);
      // The released algorithm evaluates the stop criterion after every
      // call; charge that cost for the batched iterations.  The
      // geometric series only checks once per step -- that is its
      // entire point.
      if (opt_.termination == TerminationMode::PerIterationCheck && k > 1) {
        c_.advance(static_cast<double>(k - 1) * t_check_);
      }
      calls += k;
      ++calls_steps_;
      const bool want_stop = p.time_units == 0 || c_.wtime() >= deadline;
      stop = termination_check(want_stop);
    }
    return calls;
  }

  // ---- one pattern type under one access method ----------------------
 public:
  void run_type(AccessMethod method, PatternType type) {
    const auto patterns = patterns_of_type(table_, type);
    const int sum_u = total_time_units(table_);
    const double t_method = opt_.scheduled_time / 3.0;

    pario::OpenMode mode = pario::OpenMode::ReadOnly;
    if (method == AccessMethod::InitialWrite) mode = pario::OpenMode::Create;
    if (method == AccessMethod::Rewrite) mode = pario::OpenMode::ReadWrite;
    const bool writing = method != AccessMethod::Read;

    c_.barrier();
    const double t_open = c_.wtime();

    auto file = open_for_type(type, mode);

    // Segment bookkeeping for types 3/4.
    std::int64_t seg_pos = 0;
    std::vector<std::int64_t> seg_reps;
    if (type == PatternType::SegmentedIndividual ||
        type == PatternType::SegmentedCollective) {
      seg_reps = segmented_repeats(type, method);
    }

    std::size_t seg_index = 0;
    for (const auto& p : patterns) {
      c_.barrier();
      const double p_start = c_.wtime();
      std::int64_t bytes_rank = 0;
      std::int64_t calls = 0;

      switch (type) {
        case PatternType::ScatterCollective:
          calls = run_scatter(p, method, t_method, sum_u, file, &bytes_rank);
          break;
        case PatternType::SharedCollective:
          calls = run_shared(p, method, t_method, sum_u, file, &bytes_rank);
          break;
        case PatternType::SeparateFiles:
          calls = run_separate(p, method, t_method, sum_u, file, &bytes_rank);
          break;
        case PatternType::SegmentedIndividual:
        case PatternType::SegmentedCollective:
          calls = run_segmented(p, type, writing, file, seg_reps, seg_index,
                                &seg_pos, &bytes_rank);
          ++seg_index;
          break;
      }

      // "For write access, this loop is finished with a call to
      // MPI_File_sync" (paper Sec. 5.1): the pattern time includes
      // draining its dirty data.
      if (writing) file.sync();
      c_.barrier();
      const double p_seconds = c_.wtime() - p_start;
      const double bytes_total =
          c_.allreduce_sum(static_cast<double>(bytes_rank));
      if (type == PatternType::SeparateFiles) {
        type2_calls_[p.number] = calls;  // feeds the segmented repeats
      }
      if (root_ && out_ != nullptr) {
        auto& tr = out_->access[static_cast<std::size_t>(method)]
                       .types[static_cast<std::size_t>(type)];
        PatternAccessResult pr;
        pr.pattern = p;
        pr.bytes = static_cast<std::int64_t>(bytes_total);
        pr.seconds = p_seconds;
        pr.calls = calls;
        tr.patterns.push_back(pr);
      }
    }

    if (writing) file.sync();
    file.close();
    c_.barrier();
    const double t_total = c_.wtime() - t_open;
    if (root_ && out_ != nullptr) {
      auto& tr = out_->access[static_cast<std::size_t>(method)]
                     .types[static_cast<std::size_t>(type)];
      tr.type = type;
      tr.seconds = t_total;
      tr.bytes = 0;
      for (const auto& pr : tr.patterns) tr.bytes += pr.bytes;
    }
  }

 private:
  pario::File open_for_type(PatternType type, pario::OpenMode mode) {
    const std::string base = opt_.file_prefix + "_t" +
                             std::to_string(static_cast<int>(type));
    if (type == PatternType::SeparateFiles) {
      return pario::File::open_private(c_, ctx_,
                                       base + "." + std::to_string(c_.rank()),
                                       mode);
    }
    return pario::File::open(c_, ctx_, base, mode);
  }

  // ---- type 0: strided collective scatter ----------------------------
  std::int64_t run_scatter(const IoPattern& p, AccessMethod method,
                           double t_method, int sum_u, pario::File& file,
                           std::int64_t* bytes_rank) {
    file.set_view_strided(p.l);
    const double share = t_method * p.time_units / sum_u;
    const double deadline = c_.wtime() + share;
    const bool writing = method != AccessMethod::Read;
    const std::int64_t round =
        static_cast<std::int64_t>(c_.size()) * p.L;  // file bytes per call

    auto max_calls = [&]() -> std::int64_t {
      if (writing) return 1'000'000'000;
      std::int64_t avail = file.size() - file.view_position();
      if (avail < round) {
        file.seek_view(0);
        avail = file.size();
      }
      return std::max<std::int64_t>(1, avail / std::max<std::int64_t>(round, 1));
    };
    auto do_calls = [&](std::int64_t k) -> std::int64_t {
      if (writing) {
        file.write_all(k * p.L, k);
      } else {
        file.read_all(k * p.L, k);
      }
      return k * p.L;
    };
    return time_driven(p, deadline, do_calls, max_calls, bytes_rank);
  }

  // ---- type 1: shared file pointer, collective ordered ----------------
  std::int64_t run_shared(const IoPattern& p, AccessMethod method,
                          double t_method, int sum_u, pario::File& file,
                          std::int64_t* bytes_rank) {
    const double share = t_method * p.time_units / sum_u;
    const double deadline = c_.wtime() + share;
    const bool writing = method != AccessMethod::Read;
    const std::int64_t round = static_cast<std::int64_t>(c_.size()) * p.l;

    auto max_calls = [&]() -> std::int64_t {
      if (writing) return 1'000'000'000;
      std::int64_t avail = file.size() - file.shared_position();
      if (avail < round) {
        file.seek_shared(0);
        avail = file.size();
      }
      return std::max<std::int64_t>(1, avail / std::max<std::int64_t>(round, 1));
    };
    auto do_calls = [&](std::int64_t k) -> std::int64_t {
      if (writing) {
        file.write_ordered(k * p.l, k);
      } else {
        file.read_ordered(k * p.l, k);
      }
      return k * p.l;
    };
    return time_driven(p, deadline, do_calls, max_calls, bytes_rank);
  }

  // ---- type 2: one file per process, non-collective -------------------
  std::int64_t run_separate(const IoPattern& p, AccessMethod method,
                            double t_method, int sum_u, pario::File& file,
                            std::int64_t* bytes_rank) {
    const double share = t_method * p.time_units / sum_u;
    const double deadline = c_.wtime() + share;
    const bool writing = method != AccessMethod::Read;

    auto max_calls = [&]() -> std::int64_t {
      if (writing) return 1'000'000'000;
      std::int64_t avail = file.size() - file.tell();
      if (avail < p.l) {
        file.seek(0);
        avail = file.size();
      }
      return std::max<std::int64_t>(1, avail / std::max<std::int64_t>(p.l, 1));
    };
    auto do_calls = [&](std::int64_t k) -> std::int64_t {
      if (writing) {
        file.write(k * p.l, k);
      } else {
        file.read(k * p.l, k);
      }
      return k * p.l;
    };
    return time_driven(p, deadline, do_calls, max_calls, bytes_rank);
  }

  // ---- types 3/4: segmented file, size-driven -------------------------
  // Repeat factors come from the type-2 measurements of the same access
  // method; the initial-write pass also fixes L_SEG.
  std::vector<std::int64_t> segmented_repeats(PatternType type,
                                              AccessMethod method) {
    // The chunk rows of types 2/3/4 are identical; collect type 2's
    // call counts in table order.
    std::vector<IoPattern> t2 = patterns_of_type(table_, PatternType::SeparateFiles);
    std::vector<std::int64_t> reps;
    std::int64_t total = 0;
    for (const auto& p : t2) {
      auto it = type2_calls_.find(p.number);
      const std::int64_t r = it != type2_calls_.end() ? it->second : 1;
      reps.push_back(r);
      total += r * p.l;
    }
    if (method == AccessMethod::InitialWrite &&
        type == PatternType::SegmentedIndividual) {
      // L_SEG = roundup(sum, 1 MB), capped so nprocs * L_SEG <= 2 GB
      // (paper Sec. 5.4: 32-bit int limits inside MPI libraries).
      std::int64_t seg = (total + kMiB - 1) / kMiB * kMiB;
      const std::int64_t cap =
          std::max<std::int64_t>(kMiB, (2LL << 30) / c_.size() / kMiB * kMiB);
      segment_bytes_ = std::min(seg, cap);
    }
    if (segment_bytes_ == 0) segment_bytes_ = kMiB;
    // Clamp the repeats so the pattern sequence fits the segment.
    std::int64_t consumed = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      const std::int64_t l = t2[i].l;
      const std::int64_t fit = std::max<std::int64_t>(
          0, (segment_bytes_ - consumed) / std::max<std::int64_t>(l, 1));
      reps[i] = std::min(reps[i], fit);
      consumed += reps[i] * l;
    }
    return reps;
  }

  std::int64_t run_segmented(const IoPattern& p, PatternType type, bool writing,
                             pario::File& file,
                             const std::vector<std::int64_t>& reps,
                             std::size_t seg_index, std::int64_t* seg_pos,
                             std::int64_t* bytes_rank) {
    const bool collective = type == PatternType::SegmentedCollective;
    const std::int64_t seg_base =
        static_cast<std::int64_t>(c_.rank()) * segment_bytes_;

    std::int64_t k = 0;
    std::int64_t bytes = 0;
    std::int64_t chunk = p.l;
    if (p.fill_up) {
      bytes = segment_bytes_ - *seg_pos;
      chunk = bytes;
      k = bytes > 0 ? 1 : 0;
    } else {
      k = seg_index < reps.size() ? reps[seg_index] : 0;
      bytes = k * p.l;
    }
    if (k <= 0 || bytes <= 0) return 0;

    if (collective) {
      if (writing) {
        file.write_at_all(seg_base + *seg_pos, bytes, k);
      } else {
        file.read_at_all(seg_base + *seg_pos, bytes, k);
      }
    } else {
      if (writing) {
        file.write_at(seg_base + *seg_pos, bytes, k);
      } else {
        file.read_at(seg_base + *seg_pos, bytes, k);
      }
    }
    (void)chunk;  // chunk granularity is carried via the call count
    *seg_pos += bytes;
    *bytes_rank += bytes;
    return k;
  }

  parmsg::Comm& c_;
  pario::IoContext& ctx_;
  const BeffIoOptions& opt_;
  const std::vector<IoPattern>& table_;
  BeffIoResult* out_;
  bool root_;
  double t_check_ = 50e-6;
  int calls_steps_ = 0;  // macro-steps in the current time_driven loop
  std::map<int, std::int64_t> type2_calls_;  // pattern number -> calls
  std::int64_t segment_bytes_ = 0;
};

/// Per-chain outputs that would race if chains wrote them into the
/// shared result directly; reduced in chain order by finish_beffio.
struct ChainOutput {
  double seconds = 0.0;
  pfsim::FileSystem::Stats stats;
  obs::MetricsSnapshot metrics;  // filled when collect_metrics is on
};

const char* chain_name(int chain) {
  switch (chain) {
    case 0: return "scatter";
    case 1: return "shared";
    case 2: return "separate+segmented";
    case 3: return "random-extension";
  }
  return "?";
}

/// The dependency-closed measurement chains.  Chains 0/1 cover one
/// file each (scatter, shared); chain 2 keeps the separate/segmented
/// types together because types 3/4 take their repeat counts (and
/// L_SEG) from type 2 of the same access method; chain 3 is the
/// Sec. 6 random extension.  Within a chain the access methods run in
/// order InitialWrite, Rewrite, Read so rewrite/read see the files the
/// initial write created.  Chains share no files and no simulator
/// state, so they may run concurrently.
constexpr int kNumChains = 4;

/// Executes chain `chain` as one fresh session of `transport` with its
/// own engine and file system.  Chains write disjoint slots of
/// `result` (chain 0 -> types[0], chain 1 -> types[1], chain 2 ->
/// types[2..4] + segment_bytes, chain 3 -> random_extension), so
/// concurrent chains never touch the same memory.
void run_chain_once(parmsg::SimTransport& transport,
                    const pfsim::IoSystemConfig& io_config, int nprocs,
                    const BeffIoOptions& options,
                    const std::vector<IoPattern>& table, int chain,
                    BeffIoResult* result, ChainOutput* out) {
  // Host wall-clock scope (observe-only, DESIGN.md Sec. 10.2): no-op
  // unless a profiler is attached; never feeds the result.
  obs::prof::Scope prof_scope("beffio", chain_name(chain));
  std::unique_ptr<pario::IoContext> ctx;
  // Per-chain registry (see CellSweep::run_cell): the chain owns the
  // only reference, and its snapshot is merged in chain order later.
  obs::Registry registry;
  if (options.collect_metrics) transport.attach_metrics(&registry);
  transport.label_next_session("chain " + std::to_string(chain) + ": " +
                               chain_name(chain));
  auto body = [&](parmsg::Comm& c) {
        const bool root = c.rank() == 0;
        Driver driver(c, *ctx, options, table, root ? result : nullptr);
        driver.measure_termination_cost();
        const double t_begin = c.wtime();
        for (int m = 0; m < kNumAccessMethods; ++m) {
          const auto method = static_cast<AccessMethod>(m);
          switch (chain) {
            case 0:
              driver.run_type(method, PatternType::ScatterCollective);
              break;
            case 1:
              driver.run_type(method, PatternType::SharedCollective);
              break;
            case 2:
              driver.run_type(method, PatternType::SeparateFiles);
              driver.run_type(method, PatternType::SegmentedIndividual);
              driver.run_type(method, PatternType::SegmentedCollective);
              break;
            case 3:
              driver.run_random_extension(method);
              break;
          }
        }
        if (root) {
          out->seconds = c.wtime() - t_begin;
          if (chain == 2 && result != nullptr) {
            result->segment_bytes = driver.segment_bytes();
          }
        }
  };
  try {
    transport.run_with_setup(
        nprocs,
        [&](simt::Engine& engine) {
          ctx = std::make_unique<pario::IoContext>(engine, io_config, nprocs);
          if (options.collect_metrics) ctx->fs().set_metrics(&registry);
          // Fault wiring: the transport creates its session injector
          // before calling setup(), so this is the one spot where the
          // chain's file system can pick it up (nullptr when faults
          // are off -- zero behavioral change).
          ctx->fs().set_fault_injector(transport.session_injector());
        },
        body);
  } catch (...) {
    // The retry layer reuses this transport for the next attempt;
    // never leave it pointing at this frame's registry.
    if (options.collect_metrics) transport.attach_metrics(nullptr);
    throw;
  }
  out->stats = ctx->fs().stats();
  if (options.collect_metrics) {
    ctx->fs().report_fabric_totals();
    transport.attach_metrics(nullptr);
    out->metrics = registry.snapshot();
  }
}

/// Resets the `result` slots chain `chain` writes (the disjoint-slot
/// map in run_chain_once's contract) so a retry attempt starts from
/// the same state the first attempt saw.  A chain that exhausts its
/// retry budget keeps these zeroed slots: its bandwidth contributions
/// read as 0 and the aggregation stays finite.
void reset_chain_slots(BeffIoResult* result, int chain) {
  switch (chain) {
    case 0:
    case 1:
      for (auto& am : result->access) {
        auto& slot = am.types[static_cast<std::size_t>(chain)];
        slot = TypeAccessResult{};
        slot.type = static_cast<PatternType>(chain);
      }
      break;
    case 2:
      for (auto& am : result->access) {
        for (int t = 2; t < kNumPatternTypes; ++t) {
          auto& slot = am.types[static_cast<std::size_t>(t)];
          slot = TypeAccessResult{};
          slot.type = static_cast<PatternType>(t);
        }
      }
      result->segment_bytes = 0;
      break;
    case 3:
      result->random_extension = {};
      break;
  }
}

/// Moves per-chain retry outcomes into the result (fault runs only, so
/// fault-free results keep the exact pre-fault field contents).
void attach_chain_status(BeffIoResult* result,
                         std::vector<robust::CellStatus>&& statuses,
                         int nchains) {
  result->chain_status = std::move(statuses);
  for (int chain = 0; chain < nchains; ++chain) {
    result->chain_labels.push_back("chain " + std::to_string(chain) + ": " +
                                   chain_name(chain));
  }
}

/// Ordered reduction over the chain outputs plus the paper Sec. 5.1
/// aggregation.  Strictly chain-ordered so floating-point sums cannot
/// depend on the execution schedule.
void finish_beffio(BeffIoResult* result, const std::vector<ChainOutput>& outs) {
  for (const auto& o : outs) {
    result->benchmark_seconds += o.seconds;
    result->fs_stats.requests += o.stats.requests;
    result->fs_stats.bytes_written += o.stats.bytes_written;
    result->fs_stats.bytes_read += o.stats.bytes_read;
    result->fs_stats.read_cache_hits += o.stats.read_cache_hits;
    result->fs_stats.read_cache_misses += o.stats.read_cache_misses;
    result->fs_stats.rmw_chunks += o.stats.rmw_chunks;
    result->fs_stats.seeks += o.stats.seeks;
    result->metrics.merge(o.metrics);  // chain-ordered, deterministic
  }
  const double w = result->write().weighted_bandwidth();
  const double rw = result->rewrite().weighted_bandwidth();
  const double r = result->read().weighted_bandwidth();
  result->b_eff_io = 0.25 * w + 0.25 * rw + 0.5 * r;
}

BeffIoResult make_result_header(int nprocs, const BeffIoOptions& options) {
  if (nprocs < 1) throw std::invalid_argument("run_beffio: bad process count");
  if (options.scheduled_time <= 0.0) {
    throw std::invalid_argument("run_beffio: scheduled_time must be > 0");
  }
  BeffIoResult result;
  result.nprocs = nprocs;
  result.scheduled_time = options.scheduled_time;
  result.mpart = mpart_for_memory(options.memory_per_node);
  if (options.mpart_cap > 0) {
    result.mpart = std::min(result.mpart, options.mpart_cap);
  }
  for (int m = 0; m < kNumAccessMethods; ++m) {
    result.access[static_cast<std::size_t>(m)].method =
        static_cast<AccessMethod>(m);
  }
  return result;
}

void check_capacity(int nprocs, int max_processes) {
  if (nprocs > max_processes) {
    throw std::invalid_argument("run_beffio: bad process count");
  }
}

}  // namespace

struct ChainSweep::Impl {
  Impl(const pfsim::IoSystemConfig& io, int np, const BeffIoOptions& opt)
      : io_config(io), nprocs(np), options(opt),
        result(make_result_header(np, opt)), table(pattern_table(result.mpart)),
        outs(opt.include_random_type ? kNumChains : kNumChains - 1) {
    if (opt.fault_plan != nullptr) statuses.resize(outs.size());
  }

  pfsim::IoSystemConfig io_config;
  int nprocs;
  BeffIoOptions options;
  BeffIoResult result;
  std::vector<IoPattern> table;
  std::vector<ChainOutput> outs;
  std::vector<robust::CellStatus> statuses;  // sized only with a fault plan
};

ChainSweep::ChainSweep(const pfsim::IoSystemConfig& io_config, int nprocs,
                       const BeffIoOptions& options)
    : impl_(std::make_unique<Impl>(io_config, nprocs, options)) {}
ChainSweep::~ChainSweep() = default;
int ChainSweep::num_chains() const {
  return static_cast<int>(impl_->outs.size());
}
const char* ChainSweep::label(int chain) { return chain_name(chain); }

void ChainSweep::run_chain(int chain, parmsg::SimTransport& transport) {
  Impl& s = *impl_;
  ChainOutput* out = &s.outs[static_cast<std::size_t>(chain)];
  auto once = [&] {
    run_chain_once(transport, s.io_config, s.nprocs, s.options, s.table, chain,
                   &s.result, out);
  };
  if (s.options.fault_plan == nullptr) {
    once();
    return;
  }
  transport.set_fault_plan(s.options.fault_plan);
  s.statuses[static_cast<std::size_t>(chain)] = robust::run_with_retry(
      s.options.fault_plan->retry,
      [&](int attempt) {
        transport.set_fault_attempt(attempt);
        once();
      },
      [&] {
        *out = ChainOutput{};
        reset_chain_slots(&s.result, chain);
      });
  transport.set_fault_plan(nullptr);
}

BeffIoResult ChainSweep::finish() {
  Impl& s = *impl_;
  finish_beffio(&s.result, s.outs);
  if (s.options.fault_plan != nullptr) {
    attach_chain_status(&s.result, std::move(s.statuses), num_chains());
  }
  return std::move(s.result);
}

BeffIoResult run_beffio(parmsg::SimTransport& transport,
                        const pfsim::IoSystemConfig& io_config, int nprocs,
                        const BeffIoOptions& options) {
  ChainSweep sweep(io_config, nprocs, options);
  check_capacity(nprocs, transport.max_processes());
  for (int chain = 0; chain < sweep.num_chains(); ++chain) {
    sweep.run_chain(chain, transport);
  }
  return sweep.finish();
}

std::string beffio_report(const BeffIoResult& r) {
  std::ostringstream os;
  os << "b_eff_io protocol: " << r.nprocs << " processes, scheduled T = "
     << util::format_seconds(r.scheduled_time) << ", M_PART = "
     << util::format_bytes(r.mpart) << ", L_SEG = "
     << util::format_bytes(r.segment_bytes) << "\n";
  os << "benchmark virtual time: " << util::format_seconds(r.benchmark_seconds)
     << "\n\n";

  for (const auto& am : r.access) {
    os << "--- " << access_method_name(am.method) << " ---\n";
    util::Table t({"type", "pattern", "chunk l", "mem L", "U", "calls",
                   "MB", "MB/s"});
    for (const auto& tr : am.types) {
      bool first = true;
      for (const auto& pr : tr.patterns) {
        t.add_row({first ? pattern_type_name(tr.type) : "",
                   pr.pattern.fill_up ? "fill-up" : pr.pattern.label(),
                   util::format_bytes(pr.pattern.l),
                   util::format_bytes(pr.pattern.L),
                   util::fmt(pr.pattern.time_units), util::fmt(pr.calls),
                   util::format_mbps(static_cast<double>(pr.bytes), 1),
                   util::format_mbps(pr.bandwidth(), 1)});
        first = false;
      }
      t.add_row({"", "= type total", "", "", "",
                 "", util::format_mbps(static_cast<double>(tr.bytes), 1),
                 util::format_mbps(tr.bandwidth(), 1)});
      t.add_separator();
    }
    t.render(os);
    os << "weighted " << access_method_name(am.method)
       << " bandwidth (scatter x2): "
       << util::format_mbps(am.weighted_bandwidth(), 1) << " MB/s\n\n";
  }

  os << "b_eff_io = 0.25*write + 0.25*rewrite + 0.50*read = "
     << util::format_mbps(r.b_eff_io, 1) << " MB/s\n";
  if (r.random_extension[0] > 0.0 || r.random_extension[2] > 0.0) {
    os << "random-access extension (informational, not averaged): write "
       << util::format_mbps(r.random_extension[0], 1) << ", rewrite "
       << util::format_mbps(r.random_extension[1], 1) << ", read "
       << util::format_mbps(r.random_extension[2], 1) << " MB/s\n";
  }
  os << "filesystem: " << r.fs_stats.requests << " requests, "
     << util::format_bytes(r.fs_stats.bytes_written) << " written, "
     << util::format_bytes(r.fs_stats.bytes_read) << " read, "
     << r.fs_stats.read_cache_hits << " cached / "
     << r.fs_stats.read_cache_misses << " disk read chunks, "
     << r.fs_stats.rmw_chunks << " RMW units\n";
  return os.str();
}

}  // namespace balbench::beffio
