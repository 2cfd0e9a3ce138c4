// Tests for the wall-clock profiler (obs/prof.hpp): zero-cost detach,
// scope spans, scheduler telemetry via the parallel_for observer hook,
// the wall-profile JSON, and the Chrome trace "wall" pid.
#include "obs/prof.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "simt/trace.hpp"
#include "util/parallel.hpp"
#include "util/wallclock.hpp"

namespace balbench::obs {
namespace {

namespace bu = balbench::util;

/// attach()/detach() guard so a failing assertion cannot leak an
/// attached profiler into later tests.
class Attach {
 public:
  explicit Attach(prof::Profiler* p) { prof::attach(p); }
  ~Attach() { prof::attach(nullptr); }
};

TEST(Prof, DetachedScopeRecordsNothing) {
  ASSERT_EQ(prof::current(), nullptr);
  { prof::Scope s("test", "ignored"); }
  prof::Profiler p;
  EXPECT_TRUE(p.spans().empty());
  EXPECT_EQ(p.dropped_spans(), 0u);
}

TEST(Prof, ScopeRecordsLabeledSpan) {
  prof::Profiler p;
  {
    Attach guard(&p);
    prof::Scope s("cell", "b_eff t3e");
    bu::wall_spin(0.0005);
  }
  const auto spans = p.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].label, "b_eff t3e");
  EXPECT_STREQ(spans[0].category, "cell");
  EXPECT_GE(spans[0].dur, 0.0004);
  EXPECT_GT(spans[0].start, 0.0);
}

TEST(Prof, ScopeCapturedAtConstructionIgnoresLateAttach) {
  prof::Profiler p;
  {
    prof::Scope s("test");  // constructed while detached
    prof::attach(&p);
  }
  prof::attach(nullptr);
  EXPECT_TRUE(p.spans().empty());
}

TEST(Prof, SchedulerTelemetryFromParallelFor) {
  prof::Profiler p;
  const std::size_t n = 200;
  {
    Attach guard(&p);
    bu::parallel_for(4, n, [](std::size_t) { bu::wall_spin(0.0002); });
  }
  const auto t = p.scheduler();
  ASSERT_EQ(t.batches.size(), 1u);
  EXPECT_EQ(t.tasks, n);
  EXPECT_EQ(t.batches[0].workers, 4);
  EXPECT_GT(t.wall_seconds, 0.0);
  // Every task spun >= 0.2 ms, so accounting identities must hold:
  EXPECT_GE(t.task_seconds, 0.0002 * static_cast<double>(n) * 0.9);
  EXPECT_GE(t.batches[0].max_task_seconds, 0.0002 * 0.9);
  EXPECT_LE(t.critical_path_seconds, t.wall_seconds * 1.01);
  EXPECT_GT(t.efficiency(), 0.0);
  EXPECT_LE(t.efficiency(), 1.0);
  EXPECT_GT(t.speedup(), 0.0);
  EXPECT_GE(t.idle_seconds, 0.0);
  // Tasks also land on the span timeline (category "task").
  EXPECT_EQ(p.spans().size(), n);
}

TEST(Prof, EveryBatchKeepsItsOwnTasks) {
  // Two batches in one process: batch ids must not collide, or every
  // task lands in the last batch and the first reads zero task time.
  prof::Profiler p;
  {
    Attach guard(&p);
    for (int batch = 0; batch < 2; ++batch) {
      bu::parallel_for(2, 4, [](std::size_t) { bu::wall_spin(0.0005); });
    }
  }
  const auto t = p.scheduler();
  ASSERT_EQ(t.batches.size(), 2u);
  EXPECT_NE(t.batches[0].batch, t.batches[1].batch);
  double sum_of_maxima = 0.0;
  for (const auto& b : t.batches) {
    EXPECT_EQ(b.tasks, 4u);
    EXPECT_GT(b.task_seconds, 0.0) << "batch " << b.batch;
    sum_of_maxima += b.max_task_seconds;
  }
  EXPECT_DOUBLE_EQ(t.critical_path_seconds, sum_of_maxima);
  EXPECT_GE(t.critical_path_seconds, 2 * 0.0005 * 0.9);
}

TEST(Prof, SpansSortedByThreadThenStart) {
  prof::Profiler p;
  {
    Attach guard(&p);
    bu::parallel_for(4, 64, [](std::size_t) { bu::wall_spin(0.0001); });
  }
  const auto spans = p.spans();
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const bool ordered =
        spans[i - 1].thread < spans[i].thread ||
        (spans[i - 1].thread == spans[i].thread &&
         spans[i - 1].start <= spans[i].start);
    ASSERT_TRUE(ordered) << "span " << i;
  }
}

TEST(Prof, FullLogDropsAndCounts) {
  prof::Profiler p(/*capacity_per_thread=*/2);
  {
    Attach guard(&p);
    for (int i = 0; i < 5; ++i) prof::Scope s("test");
  }
  EXPECT_EQ(p.spans().size(), 2u);
  EXPECT_EQ(p.dropped_spans(), 3u);
}

TEST(Prof, WriteProfileIsValidJsonWithSchema) {
  prof::Profiler p;
  {
    Attach guard(&p);
    {
      prof::Scope s("cell", "alpha");
      bu::wall_spin(0.0002);
    }
    bu::parallel_for(2, 10, [](std::size_t) {});
  }
  std::ostringstream os;
  prof::write_profile(os, p);
  const JsonValue doc = parse_json(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), "balbench-wall-profile/1");
  EXPECT_EQ(doc.at("scheduler").at("tasks").as_number(), 10.0);
  EXPECT_EQ(doc.at("spans").as_array().size(), 11u);  // 10 tasks + 1 scope
  // Per-category rollup covers both categories.
  EXPECT_NE(doc.at("categories").find("cell"), nullptr);
  EXPECT_NE(doc.at("categories").find("task"), nullptr);
}

TEST(Prof, WriteSummaryMentionsTasksAndSpeedup) {
  prof::Profiler p;
  {
    Attach guard(&p);
    bu::parallel_for(2, 8, [](std::size_t) { bu::wall_spin(0.0001); });
  }
  std::ostringstream os;
  prof::write_summary(os, p);
  const std::string text = os.str();
  EXPECT_NE(text.find("8 tasks"), std::string::npos) << text;
  EXPECT_NE(text.find("speedup"), std::string::npos) << text;
}

TEST(Prof, ChromeTraceGrowsWallPidWhenProfilerPassed) {
  prof::Profiler p;
  {
    Attach guard(&p);
    prof::Scope s("cell", "wall span");
    bu::wall_spin(0.0002);
  }
  simt::Tracer tracer(16);

  std::ostringstream with, without;
  ChromeTraceOptions opt;
  write_chrome_trace(without, tracer, nullptr, opt);
  opt.wall_profiler = &p;
  write_chrome_trace(with, tracer, nullptr, opt);

  const JsonValue doc = parse_json(with.str());
  bool saw_wall_meta = false, saw_wall_span = false;
  for (const auto& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("pid").as_number() !=
        static_cast<double>(kWallTracePid)) {
      continue;
    }
    if (ev.at("ph").as_string() == "M") saw_wall_meta = true;
    if (ev.at("ph").as_string() == "X" &&
        ev.at("name").as_string() == "wall span") {
      saw_wall_span = true;
      EXPECT_GT(ev.at("dur").as_number(), 100.0);  // >= 0.2 ms in trace us
    }
  }
  EXPECT_TRUE(saw_wall_meta);
  EXPECT_TRUE(saw_wall_span);
  // Without a profiler the trace must not mention the wall pid at all
  // (byte-identical traces stay byte-identical).
  EXPECT_EQ(without.str().find("wall-clock (host)"), std::string::npos);
  EXPECT_EQ(parse_json(without.str()).at("otherData").find("wall_spans"),
            nullptr);
}

}  // namespace
}  // namespace balbench::obs
