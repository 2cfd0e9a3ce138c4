// Byte-identity of the report pipeline outputs under host parallelism:
// the JSON run record and the rendered EXPERIMENTS tables must be
// byte-for-byte identical at --jobs 1, 2 and 4 (DESIGN.md Sec. 10.2).
// Uses the Quick scope; the full Doc scope is covered by the
// doc_drift_guard ctest.
#include "core/report/experiments.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "obs/prof.hpp"

namespace balbench::report {
namespace {

struct Rendered {
  std::string record;
  std::string markdown;
};

Rendered render(int jobs) {
  ExperimentOptions options;
  options.jobs = jobs;
  const ExperimentsData data = run_experiments(options);
  const std::string hash = config_hash(Scope::Quick, nullptr);
  Rendered out;
  {
    std::ostringstream os;
    // A fixed git_rev: the test compares across jobs, not revisions.
    write_run_record(os, data, hash, "test-rev");
    out.record = os.str();
  }
  {
    out.markdown =
        util::splice_sections("", render_experiments_sections(data, hash));
  }
  return out;
}

class RunRecordJobs : public ::testing::Test {
 protected:
  static const Rendered& baseline() {
    static const Rendered r = render(1);
    return r;
  }
};

TEST_F(RunRecordJobs, RecordContainsSchemaAndMetrics) {
  const std::string& record = baseline().record;
  EXPECT_NE(record.find("\"schema\": \"balbench-run-record/1\""),
            std::string::npos);
  EXPECT_NE(record.find("\"scope\": \"quick\""), std::string::npos);
  EXPECT_NE(record.find("\"config_hash\": \"" +
                        config_hash(Scope::Quick, nullptr) + "\""),
            std::string::npos);
  EXPECT_NE(record.find("\"git_rev\": \"test-rev\""), std::string::npos);
  // Instrumentation from every layer made it into the merged snapshots.
  for (const char* metric :
       {"parmsg.msgs_sent", "parmsg.bytes_sent", "parmsg.wait_seconds",
        "simt.events_fired", "net.flow_fill_rounds", "pario.bytes_written",
        "pfsim.requests", "pfsim.fabric_flow_resolves",
        "pfsim.fabric_fill_rounds", "pfsim.fabric_fill_visits",
        "net.flow_rate_changes", "pfsim.fabric_rate_changes",
        "net.flow_fill_resets", "pfsim.fabric_fill_resets"}) {
    EXPECT_NE(record.find(metric), std::string::npos) << metric;
  }
  // Host-side quantities must never leak into a run record.
  for (const char* banned : {"steals", "wall", "thread"}) {
    EXPECT_EQ(record.find(banned), std::string::npos) << banned;
  }
}

TEST_F(RunRecordJobs, MarkdownContainsStampedTables) {
  const std::string& md = baseline().markdown;
  EXPECT_NE(md.find("<!-- BEGIN TABLE 1 -->"), std::string::npos);
  EXPECT_NE(md.find("balbench-report --scope quick"), std::string::npos);
  EXPECT_NE(md.find("config " + config_hash(Scope::Quick, nullptr)),
            std::string::npos);
  EXPECT_NE(md.find("## Table 1"), std::string::npos);
}

TEST_F(RunRecordJobs, Jobs2IsByteIdentical) {
  const Rendered r = render(2);
  EXPECT_EQ(r.record, baseline().record);
  EXPECT_EQ(r.markdown, baseline().markdown);
}

TEST_F(RunRecordJobs, Jobs4IsByteIdentical) {
  const Rendered r = render(4);
  EXPECT_EQ(r.record, baseline().record);
  EXPECT_EQ(r.markdown, baseline().markdown);
}

TEST_F(RunRecordJobs, ProfilerAttachedIsByteIdentical) {
  // Wall-clock observation must be invisible in the outputs (DESIGN.md
  // Sec. 11): with a profiler attached the sweep produces the same
  // bytes, while the profiler itself sees every cell and pool task.
  obs::prof::Profiler profiler;
  obs::prof::attach(&profiler);
  const Rendered r = render(3);
  obs::prof::attach(nullptr);
  EXPECT_EQ(r.record, baseline().record);
  EXPECT_EQ(r.markdown, baseline().markdown);
  EXPECT_GT(profiler.scheduler().tasks, 0u);
  bool saw_cell = false;
  for (const auto& s : profiler.spans()) {
    if (std::string_view(s.category) == "cell") saw_cell = true;
  }
  EXPECT_TRUE(saw_cell);
}

TEST(ConfigHash, StableAndScopeSensitive) {
  const std::string quick = config_hash(Scope::Quick, nullptr);
  const std::string doc = config_hash(Scope::Doc, nullptr);
  EXPECT_EQ(quick, config_hash(Scope::Quick, nullptr));
  EXPECT_EQ(doc, config_hash(Scope::Doc, nullptr));
  EXPECT_NE(quick, doc);
  EXPECT_EQ(doc.size(), 16u);  // 64-bit FNV-1a, hex
}

}  // namespace
}  // namespace balbench::report
