#include "obs/prof.hpp"

#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <tuple>

#include "obs/json.hpp"
#include "util/atomic_write.hpp"
#include "util/wallclock.hpp"

namespace balbench::obs::prof {

namespace {

std::atomic<Profiler*> g_profiler{nullptr};
std::atomic<std::uint64_t> g_next_id{1};

constexpr const char* kTaskCategory = "task";

}  // namespace

void attach(Profiler* p) {
  g_profiler.store(p, std::memory_order_release);
  util::set_pool_observer(p);
}

Profiler* current() { return g_profiler.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

struct Profiler::ThreadLog {
  struct Entry {
    std::string label;
    const char* category;
    double start;
    double end;
    std::uint64_t batch;  // 0 for scope spans
  };

  explicit ThreadLog(std::size_t capacity) : entries(capacity) {}

  /// Single-writer bounded log: slots are written once, then published
  /// with a release store of `count`, so a concurrent reader that
  /// loads `count` with acquire sees fully written entries only.
  void push(Entry e) {
    const std::size_t n = count.load(std::memory_order_relaxed);
    if (n >= entries.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    entries[n] = std::move(e);
    count.store(n + 1, std::memory_order_release);
  }

  std::vector<Entry> entries;
  std::atomic<std::size_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  std::uint32_t thread_index = 0;
};

Profiler::Profiler(std::size_t capacity_per_thread)
    : capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      id_(g_next_id.fetch_add(1, std::memory_order_relaxed)) {}

Profiler::~Profiler() = default;

Profiler::ThreadLog* Profiler::log_for_this_thread() {
  // The cache is keyed by the profiler's process-unique id: a thread
  // that last recorded into another profiler re-registers here instead
  // of writing into the wrong (possibly destroyed) log.
  struct Cache {
    std::uint64_t profiler_id = 0;
    ThreadLog* log = nullptr;
  };
  thread_local Cache cache;
  if (cache.profiler_id != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::make_unique<ThreadLog>(capacity_));
    logs_.back()->thread_index = static_cast<std::uint32_t>(logs_.size() - 1);
    cache = {id_, logs_.back().get()};
  }
  return cache.log;
}

void Profiler::record(const char* category, std::string label,
                      double start_seconds, double end_seconds) {
  log_for_this_thread()->push(
      {std::move(label), category, start_seconds, end_seconds, 0});
}

void Profiler::on_batch_begin(std::uint64_t batch, std::size_t n, int workers,
                              double start_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  BatchTelemetry b;
  b.batch = batch;
  b.tasks = n;
  b.workers = workers;
  b.wall_seconds = -start_seconds;  // completed by on_batch_end
  batches_.push_back(b);
}

void Profiler::on_batch_end(std::uint64_t batch, double end_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = batches_.rbegin(); it != batches_.rend(); ++it) {
    if (it->batch == batch && it->wall_seconds <= 0.0) {
      it->wall_seconds += end_seconds;
      return;
    }
  }
}

void Profiler::on_task(std::uint64_t batch, std::size_t index, int worker,
                       double start_seconds, double end_seconds) {
  (void)worker;  // the log index already identifies the host thread
  log_for_this_thread()->push({"#" + std::to_string(index), kTaskCategory,
                               start_seconds, end_seconds, batch});
}

std::vector<Span> Profiler::spans() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : logs_) {
    const std::size_t n = log->count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& e = log->entries[i];
      out.push_back(
          {e.label, e.category, log->thread_index, e.start, e.end - e.start});
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return std::tie(a.thread, a.start, a.dur, a.label) <
           std::tie(b.thread, b.start, b.dur, b.label);
  });
  return out;
}

SchedulerTelemetry Profiler::scheduler() const {
  SchedulerTelemetry t;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    t.batches = batches_;
    for (const auto& log : logs_) {
      const std::size_t n = log->count.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& e = log->entries[i];
        if (e.category != kTaskCategory) continue;
        const double dur = e.end - e.start;
        for (auto it = t.batches.rbegin(); it != t.batches.rend(); ++it) {
          if (it->batch != e.batch) continue;
          it->task_seconds += dur;
          it->max_task_seconds = std::max(it->max_task_seconds, dur);
          break;
        }
      }
    }
  }
  // Drop batches whose end never arrived (still in flight at export).
  std::erase_if(t.batches,
                [](const BatchTelemetry& b) { return b.wall_seconds <= 0.0; });
  for (const auto& b : t.batches) {
    t.tasks += b.tasks;
    t.task_seconds += b.task_seconds;
    t.wall_seconds += b.wall_seconds;
    t.critical_path_seconds += b.max_task_seconds;
    t.idle_seconds +=
        std::max(0.0, b.workers * b.wall_seconds - b.task_seconds);
  }
  return t;
}

std::uint64_t Profiler::dropped_spans() const {
  std::uint64_t n = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : logs_) {
    n += log->dropped.load(std::memory_order_relaxed);
  }
  return n;
}

double SchedulerTelemetry::efficiency() const {
  double worker_seconds = 0.0;
  for (const auto& b : batches) worker_seconds += b.workers * b.wall_seconds;
  return worker_seconds > 0.0 ? task_seconds / worker_seconds : 0.0;
}

double SchedulerTelemetry::speedup() const {
  return wall_seconds > 0.0 ? task_seconds / wall_seconds : 0.0;
}

// ---------------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------------

Scope::Scope(const char* category, std::string_view label)
    : profiler_(g_profiler.load(std::memory_order_relaxed)),
      category_(category) {
  if (profiler_ == nullptr) return;
  label_.assign(label);
  start_ = util::wall_now();
}

Scope::~Scope() {
  if (profiler_ == nullptr) return;
  profiler_->record(category_, std::move(label_), start_, util::wall_now());
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

void write_profile(std::ostream& os, const Profiler& profiler) {
  const auto spans = profiler.spans();
  const auto sched = profiler.scheduler();

  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "balbench-wall-profile/1");
  w.field("clock", "host steady_clock seconds (observe-only, Sec. 10.2)");
  w.field("dropped_spans", profiler.dropped_spans());

  w.key("scheduler").begin_object();
  w.field("batches", static_cast<std::uint64_t>(sched.batches.size()));
  w.field("tasks", sched.tasks);
  w.field("task_seconds", sched.task_seconds);
  w.field("wall_seconds", sched.wall_seconds);
  w.field("critical_path_seconds", sched.critical_path_seconds);
  w.field("idle_seconds", sched.idle_seconds);
  w.field("parallel_efficiency", sched.efficiency());
  w.field("speedup", sched.speedup());
  w.key("per_batch").begin_array();
  for (const auto& b : sched.batches) {
    w.begin_object();
    w.field("batch", b.batch);
    w.field("tasks", static_cast<std::uint64_t>(b.tasks));
    w.field("workers", b.workers);
    w.field("wall_seconds", b.wall_seconds);
    w.field("task_seconds", b.task_seconds);
    w.field("max_task_seconds", b.max_task_seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  // Per-category rollup: map iteration keeps the key order stable.
  std::map<std::string, std::pair<std::uint64_t, double>> categories;
  for (const auto& s : spans) {
    auto& [count, seconds] = categories[s.category];
    ++count;
    seconds += s.dur;
  }
  w.key("categories").begin_object();
  for (const auto& [name, agg] : categories) {
    w.key(name).begin_object();
    w.field("count", agg.first);
    w.field("seconds", agg.second);
    w.end_object();
  }
  w.end_object();

  w.key("spans").begin_array();
  for (const auto& s : spans) {
    w.begin_object();
    w.field("category", s.category);
    w.field("label", s.label);
    w.field("thread", static_cast<std::uint64_t>(s.thread));
    w.field("start", s.start);
    w.field("dur", s.dur);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_summary(std::ostream& os, const Profiler& profiler) {
  const auto sched = profiler.scheduler();
  char line[256];
  std::snprintf(line, sizeof line,
                "[prof] %zu batches, %llu tasks: task %.3fs over wall %.3fs\n",
                sched.batches.size(),
                static_cast<unsigned long long>(sched.tasks),
                sched.task_seconds, sched.wall_seconds);
  os << line;
  std::snprintf(line, sizeof line,
                "[prof] critical path %.3fs, speedup %.2fx, efficiency %.2f, "
                "idle %.3fs, dropped spans %llu\n",
                sched.critical_path_seconds, sched.speedup(),
                sched.efficiency(),
                sched.idle_seconds,
                static_cast<unsigned long long>(profiler.dropped_spans()));
  os << line;
}

Session::Session(std::string path, std::string tool)
    : path_(std::move(path)), tool_(std::move(tool)) {
  if (path_.empty()) return;
  profiler_ = std::make_unique<Profiler>();
  attach(profiler_.get());
}

Session::~Session() {
  if (profiler_ == nullptr) return;
  attach(nullptr);
  std::ostringstream out;
  write_profile(out, *profiler_);
  try {
    util::write_output(path_, out.str());
  } catch (const std::exception& e) {
    std::cerr << tool_ << ": " << e.what() << '\n';
  }
  write_summary(std::cerr, *profiler_);
}

}  // namespace balbench::obs::prof
