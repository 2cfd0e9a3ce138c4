// Metrics registry: counters, sums, gauges and virtual-time histograms
// for the simulation layers (DESIGN.md Sec. 10).
//
// A Registry is the write-side of the observability subsystem: the
// transport (parmsg), the MPI-I/O layer (pario), the filesystem model
// (pfsim), the kernel suite (core/kernels, `kernels.*` names) and the
// benchmark drivers increment metrics through handles obtained once at
// attach time.  Increments are wait-free atomic
// operations and reads (snapshot()) never block a writer -- the
// registry is lock-free on the read path; only *registration* of a new
// metric name takes a mutex, and instrumented components register all
// their handles up front.
//
// Determinism invariant (normative, DESIGN.md Sec. 10.2): every metric
// recorded into a registry that feeds a run record must be a pure
// function of the simulated configuration -- virtual-time durations,
// simulated byte counts, simulated call counts.  Host-side quantities
// (wall-clock seconds, worker ids, thread ids) must never be recorded
// here; the scheduler hands them to a util::PoolObserver such as
// obs::prof::Profiler, which reports them out of band.  Under this invariant, per-cell snapshots
// merged in cell-index order are byte-identical for every --jobs
// value, like every other reported number.
//
// Units convention (enforced by the metric name, Sec. 10.1): names end
// in a unit suffix -- `_bytes` (bytes), `_seconds` (virtual seconds),
// `_calls` / `_msgs` / unsuffixed counts (events).  Bandwidth is never
// a metric; it is derived as bytes/seconds at report time.
//
// When no registry is attached to a component the instrumentation cost
// is a null-pointer test per call site (zero allocations, no atomics).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace balbench::obs {

/// Monotonic event count (merge across cells: sum).
class Counter {
 public:
  /// Adds `n` events; wait-free.
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Monotonic floating-point accumulator, e.g. amortized seek counts or
/// virtual seconds of busy time (merge across cells: sum).
class Sum {
 public:
  void add(double x) { v_.fetch_add(x, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Last-written level, e.g. a backlog size (merge across cells:
/// maximum, which is order-independent -- DESIGN.md Sec. 10.2).
class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }
  /// Keeps the larger of the current and new value.
  void set_max(double x) {
    double cur = v_.load(std::memory_order_relaxed);
    while (x > cur &&
           !v_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  /// Adds a (possibly negative) delta -- a level that rises and falls,
  /// e.g. the balbench-serve admission-queue depth.  Wait-free CAS
  /// loop, safe against concurrent set()/add() writers.
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Log2-bucketed histogram for positive quantities (virtual seconds,
/// bytes).  Bucket 0 collects non-positive values; bucket i >= 1
/// covers [kMinValue * 2^(i-1), kMinValue * 2^i).  With kMinValue =
/// 1e-9 (one virtual nanosecond) the top bucket is reached around
/// 6e14, enough for both second- and byte-valued observations.
class Histogram {
 public:
  static constexpr int kNumBuckets = 80;
  static constexpr double kMinValue = 1e-9;

  /// Bucket index for an observation; pure, unit-tested.
  static int bucket_index(double v);
  /// Inclusive lower bound of bucket i (0.0 for the underflow bucket).
  static double bucket_lower_bound(int i);

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double max() const { return max_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Snapshot of one histogram: sparse non-empty buckets plus moments.
struct HistogramData {
  /// (bucket index, count) for every non-empty bucket, ascending index.
  std::vector<std::pair<int, std::uint64_t>> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;   // sum of observations (same unit as the metric)
  double max = 0.0;   // largest observation
  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Immutable copy of a registry's state, mergeable across sweep cells.
/// std::map keys give a deterministic iteration order for export.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> sums;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  /// Cell-merge rules of DESIGN.md Sec. 10.2: counters and sums add,
  /// gauges keep the maximum, histograms add bucket-wise.  merge() is
  /// commutative except for floating-point sum rounding, which is why
  /// callers must merge in cell-index order.
  void merge(const MetricsSnapshot& other);

  [[nodiscard]] bool empty() const {
    return counters.empty() && sums.empty() && gauges.empty() &&
           histograms.empty();
  }
};

/// One timestamped metric observation kept for trace export ('C'
/// counter events in the Chrome trace); never part of run records.
struct MetricSample {
  int section = 0;      // registry section (= transport session) index
  double time = 0.0;    // virtual seconds within the section
  double value = 0.0;
  std::string name;     // metric name (shared taxonomy with the registry)
};

class Registry {
 public:
  /// Returns the named metric, creating it on first use.  The returned
  /// reference stays valid for the registry's lifetime.  Asking for an
  /// existing name with a different type throws std::logic_error.
  Counter& counter(const std::string& name);
  Sum& sum(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Records a timestamped sample for trace export.  Samples beyond
  /// `max_samples` are dropped (dropped_samples() reports how many).
  /// No-op unless enable_sampling(true) was called: run-record
  /// collection wants cheap atomic increments only, the trace exporter
  /// opts into the (mutex-guarded) sample log.
  void sample(const std::string& name, double time, double value);

  void enable_sampling(bool on) {
    sampling_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool sampling() const {
    return sampling_.load(std::memory_order_relaxed);
  }

  /// Starts a new sample section; SimTransport calls this once per
  /// session so samples align with tracer sessions in the trace.
  void begin_section();
  [[nodiscard]] int section() const {
    return section_.load(std::memory_order_relaxed);
  }

  /// Lock-free with respect to metric writers: values are read with
  /// relaxed atomic loads.  The registration mutex is held only to
  /// enumerate the name table.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] std::vector<MetricSample> samples() const;
  [[nodiscard]] std::size_t dropped_samples() const {
    return dropped_samples_.load(std::memory_order_relaxed);
  }

  explicit Registry(std::size_t max_samples = 1 << 16)
      : max_samples_(max_samples) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  enum class Kind { Counter, Sum, Gauge, Histogram };
  struct Slot {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Sum> sum;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Slot& slot(const std::string& name, Kind kind);

  mutable std::mutex mutex_;  // guards names_ and samples_ layout only
  std::map<std::string, Slot> names_;
  std::vector<MetricSample> samples_;
  std::size_t max_samples_;
  std::atomic<int> section_{0};
  std::atomic<std::size_t> dropped_samples_{0};
  std::atomic<bool> sampling_{false};
};

}  // namespace balbench::obs
