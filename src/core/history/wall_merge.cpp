#include "core/history/wall_merge.hpp"

#include <stdexcept>

namespace balbench::history {

WallProfileMerge parse_wall_profile(const obs::JsonValue& doc) {
  const std::string& schema = doc.at("schema").as_string();
  if (schema != "balbench-wall-profile/1") {
    throw std::runtime_error("wall-profile schema is '" + schema +
                             "', want 'balbench-wall-profile/1'");
  }
  WallProfileMerge m;
  const obs::JsonValue* merged_runs = doc.find("merged_runs");
  m.runs = merged_runs != nullptr
               ? static_cast<std::uint64_t>(merged_runs->as_number())
               : 1;
  if (m.runs == 0) throw std::runtime_error("merged_runs must be >= 1");
  m.dropped_spans =
      static_cast<std::uint64_t>(doc.at("dropped_spans").as_number());

  const obs::JsonValue& sched = doc.at("scheduler");
  m.batches = static_cast<std::uint64_t>(sched.at("batches").as_number());
  m.tasks = static_cast<std::uint64_t>(sched.at("tasks").as_number());
  m.task_seconds = sched.at("task_seconds").as_number();
  m.wall_seconds = sched.at("wall_seconds").as_number();
  m.critical_path_seconds = sched.at("critical_path_seconds").as_number();
  m.idle_seconds = sched.at("idle_seconds").as_number();
  const obs::JsonValue* worker_seconds = sched.find("worker_seconds");
  if (worker_seconds != nullptr) {
    // Merged record: the sum is stored directly.
    m.worker_seconds = worker_seconds->as_number();
  } else {
    // Raw profile: recover sum(workers x batch wall) from per_batch.
    for (const auto& b : sched.at("per_batch").as_array()) {
      m.worker_seconds +=
          b.at("workers").as_number() * b.at("wall_seconds").as_number();
    }
  }

  for (const auto& [name, agg] : doc.at("categories").as_object()) {
    WallCategory c;
    c.count = static_cast<std::uint64_t>(agg.at("count").as_number());
    c.seconds = agg.at("seconds").as_number();
    m.categories.emplace(name, c);
  }
  return m;
}

void merge_wall_profiles(WallProfileMerge& acc, const WallProfileMerge& other) {
  acc.runs += other.runs;
  acc.dropped_spans += other.dropped_spans;
  acc.batches += other.batches;
  acc.tasks += other.tasks;
  acc.task_seconds += other.task_seconds;
  acc.wall_seconds += other.wall_seconds;
  acc.critical_path_seconds += other.critical_path_seconds;
  acc.idle_seconds += other.idle_seconds;
  acc.worker_seconds += other.worker_seconds;
  for (const auto& [name, c] : other.categories) {
    WallCategory& dst = acc.categories[name];
    dst.count += c.count;
    dst.seconds += c.seconds;
  }
}

void write_merged_wall_profile(std::ostream& os, const WallProfileMerge& m) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("schema", "balbench-wall-profile/1");
  w.field("clock", "host steady_clock seconds (observe-only, Sec. 10.2)");
  w.field("merged_runs", m.runs);
  w.field("dropped_spans", m.dropped_spans);
  w.key("scheduler").begin_object();
  w.field("batches", m.batches);
  w.field("tasks", m.tasks);
  w.field("task_seconds", m.task_seconds);
  w.field("wall_seconds", m.wall_seconds);
  w.field("critical_path_seconds", m.critical_path_seconds);
  w.field("idle_seconds", m.idle_seconds);
  w.field("worker_seconds", m.worker_seconds);
  w.field("parallel_efficiency", m.efficiency());
  w.field("speedup", m.speedup());
  w.end_object();
  w.key("categories").begin_object();
  for (const auto& [name, c] : m.categories) {
    w.key(name).begin_object();
    w.field("count", c.count);
    w.field("seconds", c.seconds);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  os << '\n';
}

}  // namespace balbench::history
